"""Per-query Ray execution census.

Runs every ``queries()`` entry (or the named ones) at the given sf_dir in
ONE Ray session (``num_cpus=4``, as in ``tests/conftest.py``) and prints
one JSON line per query, flushed as it finishes:

    {"name": ..., "executions": ..., "limit1": ..., "rows": ..., "wall_s": ...,
     "operators": [[[name, tasks], ...], ...]}

``executions`` counts the Ray Data executions the query started
(``testing.count_executions``), ``limit1`` the ``limit=1`` ones among
them (schema probes), ``rows`` the result's row count, ``wall_s``
the query's wall time, result consumed, and ``operators`` each
execution's physical operators, inputs first, with the Ray tasks each
ran (a fused operator is one ``A->B`` name: a read fused with the map
stages after it reads ``ReadParquet->MapBatches(...)``).

Usage: python scripts/query_census.py sf_dir [query ...]
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main(sf_dir: str, names: list[str]) -> None:
    import ray
    from check_oracles import to_df

    import __ray_entry__ as entry
    from full_text_extractor_v6_ray.testing import count_executions

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    qs = entry.queries()
    for name in names or list(qs):
        with count_executions() as execs:
            t = time.perf_counter()
            rows = len(to_df(qs[name](sf_dir)))
            wall = time.perf_counter() - t
        print(json.dumps({
            "name": name, "executions": len(execs),
            "limit1": sum("limit=1" in ops for ops in execs),
            "rows": rows, "wall_s": round(wall, 2),
            "operators": [e.tasks() for e in execs]}), flush=True)
    ray.shutdown()


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2:])
