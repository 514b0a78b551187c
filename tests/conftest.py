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

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()


SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="session")
def sf_dir():
    return SF_DIR


@pytest.fixture(autouse=True)
def _no_ray_dataset_join(monkeypatch):
    """Every two-sided operator runs the engine's own bucket exchange
    (``stages/exchange.py``); Ray's hash-shuffle ``Dataset.join`` must be
    reached by no path."""
    import ray.data

    def _refuse(self, *args, **kwargs):
        raise AssertionError("ray.data.Dataset.join is not used by the engine")

    monkeypatch.setattr(ray.data.Dataset, "join", _refuse)
