"""Seeded benchmark of the extraction engine: one workload per call.

Usage (from the repository root):

  python3 perfbench/run.py --workload warc_recrawl --seed 42 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` lists the measured ones and why each was
chosen):

  warc_recrawl   warc_extraction_pipeline over WARC segments, 3 captures per url
  cdc_delta      one incremental_extraction_round over a 5%/2%/1% changed snapshot
  pages_parquet  read_parquet -> extract_pages -> dedup_latest_by_ts -> write_parquet
                 (runnable by name; not in ``BENCHMARK.json``, whose time
                 limit for all runs fits two workloads at 30 s a run)

A run generates (or reuses) the seeded input, then starts fresh job
processes one after another (``job.py``); each sets up Ray with
``num_cpus`` = nproc, warms up, and repeats the timed batch job until
its share of ``--seconds`` is used, checking every output. This
process watches each job's process tree through /proc for the peak
resident set of the Ray driver and its workers.

The last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``. With ``--trace 0`` the metrics are
the end-to-end ones:

  pages_per_s_at_ref
                input pages / wall time of one batch job, scaled to the
                host speed at which the reference job of ``calib.py``
                takes 0.5 s: each repetition's rate times the wall time
                of the reference job run just before it, over 0.5 s
                (median of reps). On a shared host (4 vCPUs, Xeon at
                2.0 GHz) the raw rate of the same code swung 2x within
                half an hour; the raw median pages/s is in the context
                line.
  setup_s       ray.init + package import + warm-up job (median of jobs)
  peak_rss_mib  largest VmHWM of the driver or a Ray worker (median of jobs)
  ok_rate       1 - error_rate, where error_rate is output rows with a
                non-empty ``error`` over output rows (a failed job counts 1.0)

With ``--trace 1`` one job alternates untraced and traced repetitions
and then runs the per-layer passes of ``layers.py``; the metrics are
the per-layer ones and the spans go to ``.perfbench/traces/``. The
line before the result holds the run's context (nproc, Ray num_cpus,
library versions, a single-core ExtractBatch probe, generator time,
error_rate and every sample), also saved under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = "full_text_extractor_v6_ray"
WORK = os.path.join(ROOT, ".perfbench")

DEFAULT_SEED = 42
# documents (pages_parquet) or urls (warc_recrawl, cdc_delta) per input
SIZES = {"pages_parquet": 1000, "warc_recrawl": 1000, "cdc_delta": 1000}
WARM_SEED = 1
WARM_DIVISOR = 10          # the warm-up input is a tenth of the timed one
JOBS_PER_RUN = 2           # untraced runs: setup_s is the median of these
OBJECT_STORE_BYTES = 512 << 20
RUN_LIMIT_S = 170          # every run ends within this
PROBE_PAGES = 400
MAX_CACHED_INPUTS = 12
RAY_SOCKET_HEADROOM = 70   # session dir + socket name under the temp dir


def nproc() -> int:
    """What ``nproc`` prints: OMP_NUM_THREADS when set, else the CPUs
    this process may run on."""
    try:
        n = int(os.environ.get("OMP_NUM_THREADS", "0"))
    except ValueError:
        n = 0
    return n if n > 0 else len(os.sched_getaffinity(0))


def _code_hash() -> str:
    h = hashlib.sha1()
    for base in (os.path.join(ROOT, PACKAGE), HERE):
        for dirpath, dirs, files in os.walk(base):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    with open(os.path.join(dirpath, name), "rb") as f:
                        h.update(name.encode() + f.read())
    return h.hexdigest()[:12]


def ensure_input(workload: str, seed: int, size: int, code: str) -> dict:
    """Generate the input once per (workload, seed, size, code)."""
    import gen

    path = os.path.join(WORK, "inputs", f"{workload}-s{seed}-n{size}-{code}")
    meta_path = os.path.join(path, "meta.json")
    if not os.path.isfile(meta_path):
        shutil.rmtree(path, ignore_errors=True)
        tmp = path + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        t = time.perf_counter()
        meta = gen.generate(workload, tmp, seed, size)
        meta["gen_s"] = time.perf_counter() - t
        with open(os.path.join(tmp, "meta.json"), "w") as f:
            json.dump(meta, f, indent=1, sort_keys=True)
        os.replace(tmp, path)
    os.utime(path)
    with open(meta_path) as f:
        return {"path": path, **json.load(f)}


def _prune_inputs(keep: set[str]) -> None:
    base = os.path.join(WORK, "inputs")
    dirs = sorted((os.path.join(base, d) for d in os.listdir(base)),
                  key=os.path.getmtime, reverse=True)
    for d in dirs[MAX_CACHED_INPUTS:]:
        if d not in keep:
            shutil.rmtree(d, ignore_errors=True)


def probe_pages_per_s() -> float:
    """Single-core ExtractBatch throughput on a fixed page set: the
    host-speed reference every result carries."""
    import gen
    from full_text_extractor_v6_ray.sources.pages_gen import PageGenBatch
    from full_text_extractor_v6_ray.stages.extract import ExtractBatch

    pages = PageGenBatch(0)(gen.documents(0, PROBE_PAGES))
    ex = ExtractBatch()
    rates = []
    for _ in range(3):
        t = time.perf_counter()
        for i in range(0, pages.num_rows, 128):
            ex(pages.slice(i, 128))
        rates.append(pages.num_rows / (time.perf_counter() - t))
    return statistics.median(rates)


# ---------------------------------------------------------------------------
# job processes and their process trees
# ---------------------------------------------------------------------------

def _ppid_map() -> dict[int, int]:
    out = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat") as f:
                    out[int(name)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                pass
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


class TreeWatch(threading.Thread):
    """Poll a job's process tree: every pid seen, and the peak VmHWM of
    the job process itself and of every Ray worker under it."""

    def __init__(self, root: int, interval: float = 0.2):
        super().__init__(daemon=True)
        self.root, self.interval = root, interval
        self.seen: set[int] = {root}
        self.peak_kib = 0
        self._measured: set[int] = set()
        self._halt = threading.Event()

    def _is_measured(self, pid: int) -> bool:
        if pid == self.root or pid in self._measured:
            return True
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
        except OSError:
            return False
        if cmd.startswith(b"ray::") or b"default_worker.py" in cmd:
            self._measured.add(pid)
            return True
        return False

    def sample(self) -> None:
        kids: dict[int, list[int]] = {}
        for pid, ppid in _ppid_map().items():
            kids.setdefault(ppid, []).append(pid)
        stack = [self.root]
        while stack:
            pid = stack.pop()
            self.seen.add(pid)
            stack += kids.get(pid, [])
            if not self._is_measured(pid):
                continue
            try:
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            self.peak_kib = max(self.peak_kib,
                                                int(line.split()[1]))
                            break
            except (OSError, ValueError):
                pass

    def run(self) -> None:
        while not self._halt.wait(self.interval):
            self.sample()

    def stop(self) -> None:
        self._halt.set()
        self.join()


def _reap(proc: subprocess.Popen, watch: TreeWatch) -> None:
    """Stop every process of the job's session and wait until each ended."""
    sid = proc.pid   # start_new_session: the job leads its own session
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    deadline = time.monotonic() + 15
    while True:
        left = []
        for pid in watch.seen | set(_ppid_map()):
            try:
                if os.getsid(pid) == sid and _alive(pid):
                    left.append(pid)
            except OSError:
                pass
        if not left or time.monotonic() > deadline:
            return
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        time.sleep(0.1)


def run_job(spec: dict, timeout: float) -> dict:
    """One fresh job process; returns its result plus the peak RSS."""
    os.makedirs(spec["work"], exist_ok=True)
    spec_path = os.path.join(spec["work"], "spec.json")
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [ROOT, HERE, os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep),
        RAY_USAGE_STATS_ENABLED="0")
    with open(os.path.join(spec["work"], "job.log"), "w") as log:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "job.py"), spec_path],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True)
        watch = TreeWatch(proc.pid)
        watch.start()
        try:
            proc.wait(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            pass
        watch.stop()
        _reap(proc, watch)
    try:
        with open(spec["result"]) as f:
            result = json.load(f)
    except (OSError, ValueError):
        with open(os.path.join(spec["work"], "job.log")) as f:
            tail = f.read()[-2000:]
        return {"crashed": True, "log_tail": tail}
    result["peak_rss_mib"] = watch.peak_kib / 1024.0
    return result


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def _ray_tmp() -> str:
    path = os.path.join(WORK, "ray")
    if len(path) + RAY_SOCKET_HEADROOM > 107:
        # AF_UNIX socket paths are capped at 107 bytes; fall back to a
        # fresh directory under the system temp dir when the checkout
        # path is too deep (removed again at the end of the run)
        import tempfile
        path = tempfile.mkdtemp(prefix="perfbench-ray-")
    return path


def _median(xs):
    return statistics.median(xs) if xs else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", type=int, default=None,
                    help="input size (default: the recorded one)")
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not os.path.isdir(os.path.join(ROOT, PACKAGE)):
        print(f"perfbench: package {PACKAGE!r} not found under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, HERE]
    import pyarrow
    import ray

    import calib

    wl = args.workload
    size = args.size or SIZES[wl]
    code = _code_hash()
    os.makedirs(os.path.join(WORK, "inputs"), exist_ok=True)
    meta = ensure_input(wl, args.seed, size, code)
    warm = ensure_input(wl, WARM_SEED, max(10, size // WARM_DIVISOR), code)
    _prune_inputs({meta["path"], warm["path"]})
    probe = probe_pages_per_s()

    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)["workloads"].get(wl, {})
    default_match = None
    if args.seed == DEFAULT_SEED and size == expected.get("size"):
        default_match = meta["digest"] == expected["digest"]

    cpus = nproc()
    run_dir = os.path.join(WORK, "runs", f"{wl}-s{args.seed}-{os.getpid()}")
    n_jobs = 1 if args.trace else JOBS_PER_RUN
    ray_tmp = _ray_tmp()
    jobs = []
    for j in range(n_jobs):
        work = os.path.join(run_dir, f"job{j}")
        spec = {"workload": wl, "input": meta["path"], "warm": warm["path"],
                "work": work, "budget_s": args.seconds / n_jobs,
                "num_cpus": cpus, "ray_tmp": ray_tmp,
                "object_store_bytes": OBJECT_STORE_BYTES,
                "trace": args.trace, "result": os.path.join(work,
                                                            "result.json"),
                "trace_file": os.path.join(
                    WORK, "traces", f"{wl}-s{args.seed}.json")}
        left = RUN_LIMIT_S - (time.monotonic() - started)
        t = time.monotonic()
        jobs.append(run_job(spec, left))
        jobs[-1]["job_wall_s"] = time.monotonic() - t
    shutil.rmtree(run_dir, ignore_errors=True)
    shutil.rmtree(ray_tmp, ignore_errors=True)

    done = [j for j in jobs if not j.get("crashed")]
    reps = [r for j in done for r in j["reps"]]
    crashed = len(jobs) - len(done)
    bad = [r for r in reps if r["problems"]]
    bad += [{"problems": p} for j in done for p in [j.get("problems")] if p]
    attempted = len(reps) + crashed
    failed = len(bad) + crashed
    good = [r for r in reps if not r["problems"]]
    rates = [1.0 if r["problems"] else r["errors"] / max(1, r["rows"])
             for r in reps] + [1.0] * crashed
    error_rate = statistics.fmean(rates) if rates else 1.0
    if default_match is False:
        failed = attempted
    info = {
        "workload": wl, "seed": args.seed, "size": size, "trace": args.trace,
        "seconds": args.seconds, "nproc": cpus, "ray_num_cpus": cpus,
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "ray": ray.__version__, "pyarrow": pyarrow.__version__,
        "python": sys.version.split()[0],
        "probe_extractbatch_pages_per_s": probe,
        "input_pages": meta["input_pages"], "gen_s": meta["gen_s"],
        "reference_digest": meta["digest"], "default_digest_match":
        default_match, "error_rate": error_rate,
        "setup_samples_s": [j["setup_s"] for j in done],
        "peak_rss_samples_mib": [j["peak_rss_mib"] for j in done],
        "rep_walls_s": [r["wall_s"] for r in reps],
        "rep_ref_s": [r["ref_s"] for r in reps],
        "pages_per_s": _median([meta["input_pages"] / r["wall_s"]
                                for r in good]),
        "job_walls_s": [j["job_wall_s"] for j in jobs],
        "run_wall_s": time.monotonic() - started,
        "problems": sorted({p for r in bad for p in r["problems"]}
                           | {j["log_tail"] for j in jobs
                              if j.get("crashed")}),
    }
    if not good:
        print(json.dumps({"perfbench": info}))
        print("perfbench: no batch job completed correctly", file=sys.stderr)
        return 1

    if args.trace:
        metrics = dict(done[0]["metrics"])
        metrics["out.error_rate"] = error_rate
        metrics["bench.gen_s"] = meta["gen_s"]
        metrics["bench.probe_pages_per_s"] = probe
        metrics["bench.ref_job_s"] = _median([r["ref_s"] for r in reps])
        units = _per_layer_units()
        metrics = {k: {"value": metrics[k], "unit": units[k]}
                   for k in units}
    else:
        metrics = {
            "pages_per_s_at_ref": {"value": _median(
                [meta["input_pages"] / r["wall_s"]
                 * r["ref_s"] / calib.REF_NOMINAL_S for r in good]),
                "unit": "1/s"},
            "setup_s": {"value": _median([j["setup_s"] for j in done]),
                        "unit": "s"},
            "peak_rss_mib": {"value": _median(
                [j["peak_rss_mib"] for j in done]), "unit": "MiB"},
            "ok_rate": {"value": 1.0 - error_rate, "unit": "ratio"},
        }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results",
                           f"{wl}-s{args.seed}-t{args.trace}.json"), "w") as f:
        json.dump({"info": info, "result": result}, f, indent=1)
    print(json.dumps({"perfbench": info}))
    print(json.dumps(result))
    return 0


def _per_layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
