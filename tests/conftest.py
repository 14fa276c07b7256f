from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def add_alive_node(monkeypatch):
    """Call to make ``ray.nodes`` report one more alive node, as a
    two-node cluster would. The build takes one path on any cluster,
    so builds under it must write what single-node builds write."""
    import ray

    def add() -> None:
        nodes = ray.nodes() + [{"NodeID": "second", "Alive": True}]
        monkeypatch.setattr("ray.nodes", lambda: nodes)

    return add


@pytest.fixture
def report_memory(monkeypatch):
    """Call with a byte count to make ``ray.cluster_resources`` report
    that much memory, every other resource unchanged. No driver
    structure of the build grows with the corpus, so builds under it
    must succeed and write what builds with memory to spare write."""
    import ray

    real = ray.cluster_resources

    def report(nbytes: float) -> None:
        monkeypatch.setattr("ray.cluster_resources",
                            lambda: {**real(), "memory": float(nbytes)})

    return report
