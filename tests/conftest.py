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
    """The Ray Data executions this process starts while the test runs,
    each as its physical operators' names (see
    ``full_text_extractor_v6_ray.testing``)."""
    from full_text_extractor_v6_ray.testing import count_executions as spy

    with spy() as executions:
        yield executions


@pytest.fixture()
def bucket_count(monkeypatch):
    """``bucket_count(n)`` makes every keyed exchange planned after the
    call use ``n`` buckets (it patches ``exchange.bucket_count``, which
    the plan reads on the driver)."""
    from full_text_extractor_v6_ray.stages import exchange

    def set_count(n: int) -> None:
        monkeypatch.setattr(exchange, "bucket_count", lambda: n)

    return set_count
