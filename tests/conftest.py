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
    two-node cluster would: ``resolve_mode`` then picks the
    partitioned path."""
    import ray

    def add() -> None:
        nodes = ray.nodes() + [{"NodeID": "second", "Alive": True}]
        monkeypatch.setattr("ray.nodes", lambda: nodes)

    return add


@pytest.fixture
def report_memory(monkeypatch):
    """Call with a byte count to make ``ray.cluster_resources`` report
    that much memory, every other resource unchanged: below what the
    broadcast path's driver structures need, ``resolve_mode`` picks the
    partitioned path."""
    import ray

    real = ray.cluster_resources

    def report(nbytes: float) -> None:
        monkeypatch.setattr("ray.cluster_resources",
                            lambda: {**real(), "memory": float(nbytes)})

    return report


@pytest.fixture
def fused_link_calls(monkeypatch):
    """A list that grows by one each time a build links on the
    partitioned path (``stages.link.resolve_link_fused``)."""
    from codetoneo4j_ray.pipelines import build_graph as bg
    from codetoneo4j_ray.stages import link

    calls: list[int] = []

    def counting(*args, **kwargs):
        calls.append(1)
        return link.resolve_link_fused(*args, **kwargs)

    monkeypatch.setattr(bg, "resolve_link_fused", counting)
    return calls
