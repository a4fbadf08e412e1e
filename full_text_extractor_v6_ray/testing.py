"""Helpers for tests and benchmark scripts (not used by the pipelines)."""

from __future__ import annotations

import contextlib
from collections.abc import Iterator


@contextlib.contextmanager
def count_executions() -> Iterator[list[str]]:
    """Yield a list that collects the names of the Ray Data executions
    (``StreamingExecutor.execute`` calls) this process starts inside the
    block, in start order; ``clear()`` it between phases counted apart.
    The spy reaches into Ray's private executor module, so this is the
    one place a Ray upgrade has to mend."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    names: list[str] = []
    real = StreamingExecutor.execute

    def spy(self, dag, *args, **kwargs):
        names.append(dag.name)
        return real(self, dag, *args, **kwargs)

    StreamingExecutor.execute = spy
    try:
        yield names
    finally:
        StreamingExecutor.execute = real
