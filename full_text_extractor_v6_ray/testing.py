"""Helpers for tests and benchmark scripts (not used by the pipelines)."""

from __future__ import annotations

import contextlib
import os
from collections.abc import Iterator


class Execution(tuple):
    """One Ray Data execution: its physical operators' names, inputs
    first (``('Input', 'ReadParquet->MapBatches(f)', 'limit=1')``; a
    fused operator is one name). ``sites``: where a ``limit=1`` one (a
    ``ds.schema()`` probe) started, as ``_package_sites`` names it."""

    def __new__(cls, ops: list):
        self = super().__new__(cls, (op.name for op in ops))
        self._ops = ops
        self.sites = _package_sites() if "limit=1" in self else ()
        return self

    def tasks(self) -> list[tuple[str, int]]:
        """(name, Ray tasks finished) per operator; final once the
        execution has ended."""
        return [(op.name, op.metrics.num_tasks_finished) for op in self._ops]


def _package_sites() -> tuple[str, ...]:
    """The innermost two frames of the calling stack that lie in this
    package, this module excluded, as ``"path:line"`` relative to it."""
    import traceback

    root = os.path.dirname(__file__)
    return tuple(f"{os.path.relpath(f.filename, root)}:{f.lineno}"
                 for f in reversed(traceback.extract_stack())
                 if f.filename.startswith(root + os.sep)
                 and f.filename != __file__)[:2]


@contextlib.contextmanager
def count_executions() -> Iterator[list[Execution]]:
    """Yield a list that collects an ``Execution`` for each Ray Data
    execution (``StreamingExecutor.execute`` call) this process starts
    inside the block, in start order; ``clear()`` it between phases
    counted apart. The spy reaches into Ray's private executor module, so
    this is the one place a Ray upgrade has to mend."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    executions: list[Execution] = []
    real = StreamingExecutor.execute

    def walk(op, ops: list) -> list:
        for dep in op.input_dependencies:
            walk(dep, ops)
        if op not in ops:
            ops.append(op)
        return ops

    def spy(self, dag, *args, **kwargs):
        executions.append(Execution(walk(dag, [])))
        return real(self, dag, *args, **kwargs)

    StreamingExecutor.execute = spy
    try:
        yield executions
    finally:
        StreamingExecutor.execute = real
