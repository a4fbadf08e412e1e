"""Ray's fixed costs: a Ray Data execution against plain Ray tasks.

Usage: python scripts/ray_floor.py [num_cpus]
OWNS its Ray session (default ``num_cpus=1``). For k = 1, 2, 4, 8, 16
it times an identity ``map_batches`` over k one-row blocks
(``from_arrow(...).map_batches(...).materialize()``, one Ray Data
execution of k tasks) and ``ray.get`` of k no-op plain tasks, each the
median of 7 runs after one warm-up, and prints one JSON line per k.
The last line fits ``ms = fixed + per_task * k`` to each side: the
per-execution and per-task cost a pass pays as a Ray Data execution,
and what the same tasks cost plain.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np
import pyarrow as pa

CPUS = int(sys.argv[1]) if len(sys.argv) > 1 else 1
BLOCKS = (1, 2, 4, 8, 16)
REPS = 7


def _identity(batch: pa.Table) -> pa.Table:
    return batch


def _noop() -> int:
    return 0


def _median_ms(run) -> float:
    run()   # warm-up: worker start, function export
    walls = []
    for _ in range(REPS):
        t = time.perf_counter()
        run()
        walls.append(time.perf_counter() - t)
    return 1000 * statistics.median(walls)


def main() -> None:
    import ray
    import ray.data

    ray.init(num_cpus=CPUS, include_dashboard=False, logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    noop = ray.remote(_noop)
    rows = []
    try:
        for k in BLOCKS:
            blocks = [pa.table({"id": [i]}) for i in range(k)]
            data_ms = _median_ms(lambda: ray.data.from_arrow(blocks)
                                 .map_batches(_identity,
                                              batch_format="pyarrow",
                                              zero_copy_batch=True)
                                 .materialize())
            tasks_ms = _median_ms(
                lambda: ray.get([noop.remote() for _ in range(k)]))
            rows.append((k, data_ms, tasks_ms))
            print(json.dumps({"blocks": k, "ray_data_ms": round(data_ms, 1),
                              "plain_tasks_ms": round(tasks_ms, 1)}),
                  flush=True)
    finally:
        ray.shutdown()
    k, data, tasks = (np.array(c) for c in zip(*rows))
    fit = {}
    for name, ms in (("ray_data", data), ("plain_tasks", tasks)):
        per_task, fixed = np.polyfit(k, ms, 1)
        fit[f"{name}_fixed_ms"] = round(float(fixed), 1)
        fit[f"{name}_per_task_ms"] = round(float(per_task), 1)
    print(json.dumps({"num_cpus": CPUS, **fit}), flush=True)


if __name__ == "__main__":
    main()
