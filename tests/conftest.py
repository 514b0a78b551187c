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


@pytest.fixture(autouse=True)
def _no_keyed_ray_aggregate(monkeypatch):
    """Every keyed merge runs through ``exchange.merge`` (a driver
    ``pa.TableGroupBy`` or one per bucket of the engine's exchange); Ray's
    sort-based keyed ``groupby(…).aggregate`` — and ``count``/``sum``/
    ``min``/``max``, which go through it — must be reached by no path. A
    global aggregate (``Dataset.aggregate``, key None) stays allowed."""
    from ray.data.grouped_data import GroupedData

    aggregate = GroupedData.aggregate

    def _refuse_keyed(self, *aggs):
        if self._key is not None:
            raise AssertionError(
                "a keyed ray.data groupby(...).aggregate is not used by the engine"
            )
        return aggregate(self, *aggs)

    monkeypatch.setattr(GroupedData, "aggregate", _refuse_keyed)
