"""Session-scoped Ray fixture: ONE ray.init per pytest session."""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    try:
        from ray.data import DataContext
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
    except Exception:
        pass
    yield
    ray.shutdown()


@pytest.fixture()
def count_executions():
    """Names of the Ray Data executions this process starts while the
    test runs (see ``full_text_extractor_v6_ray.testing``)."""
    from full_text_extractor_v6_ray.testing import count_executions as spy

    with spy() as names:
        yield names
