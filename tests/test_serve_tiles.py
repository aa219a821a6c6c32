"""Byte-identity of served tile streams against local engine runs.

The serving layer's core guarantee: a rank's tiles fetched over HTTP —
reassembled from chunked repro.net frames — are byte-for-byte the
arrays a local :func:`repro.engine.execute` run hands its sink, for
every generator model and either scheduler; and the served design
record equals the locally computed ``analytic_properties`` record
field-for-field under ``diff_properties``.
"""

import numpy as np
import pytest

from repro.catalog import DesignProperties, analytic_properties, diff_properties
from repro.design import PowerLawDesign
from repro.engine import (
    AssemblySink,
    RunConfig,
    StaticScheduler,
    WorkQueueScheduler,
    execute,
    iter_task_tiles,
    plan_from_design,
    plan_from_model,
)
from repro.models import resolve_model
from repro.serve import ServeClient, ServerConfig, start_in_thread

STAR_SIZES = [3, 4, 5]
SELF_LOOP = "center"
SEED = 7
RANKS = 3


def _spec(model_name):
    return {
        "star_sizes": STAR_SIZES,
        "self_loop": SELF_LOOP,
        "model": model_name,
        "seed": SEED,
    }


def _local_plan(model_name, budget=None):
    design = PowerLawDesign(STAR_SIZES, SELF_LOOP)
    model = resolve_model(model_name, design=design, seed=SEED)
    kwargs = {} if budget is None else {"memory_budget_entries": budget}
    if model is None:
        return design, plan_from_design(design, RANKS, **kwargs)
    return model, plan_from_model(model, RANKS, **kwargs)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    handle = start_in_thread(
        ServerConfig(
            cache_dir=str(tmp_path_factory.mktemp("serve-cache")),
            ranks=RANKS,
        )
    )
    yield handle
    handle.stop()


@pytest.fixture(scope="module")
def client(server):
    with ServeClient(server.base_url) as c:
        yield c


@pytest.mark.parametrize("model_name", ["kron", "skg", "noisy-skg"])
@pytest.mark.parametrize(
    "scheduler", [StaticScheduler, WorkQueueScheduler], ids=["static", "queue"]
)
class TestTileByteIdentity:
    def test_served_tiles_match_local_execute(
        self, client, model_name, scheduler
    ):
        digest = client.post_design(_spec(model_name))["digest"]
        _, plan = _local_plan(model_name)
        result = execute(
            plan, AssemblySink(), config=RunConfig(scheduler=scheduler())
        )
        blocks = result.sink_result.blocks
        for rank in range(RANKS):
            served = client.fetch_tiles(digest, rank, ranks=RANKS)
            rows, cols, vals = blocks[rank]
            assert served.rows.tobytes() == rows.tobytes()
            assert served.cols.tobytes() == cols.tobytes()
            assert served.vals.tobytes() == vals.tobytes()
            assert served.rows.dtype == rows.dtype
            assert served.cols.dtype == cols.dtype
            assert served.vals.dtype == vals.dtype
            assert served.open_doc["digest"] == digest
            assert served.commit_doc["nnz"] == len(rows)


@pytest.mark.parametrize("model_name", ["kron", "skg", "noisy-skg"])
class TestServedRecord:
    def test_record_matches_analytic_field_for_field(self, client, model_name):
        reply = client.post_design(_spec(model_name))
        subject, _ = _local_plan(model_name)
        local = analytic_properties(subject)
        served = DesignProperties.from_doc(reply["record"])
        diff = diff_properties(local, served)
        assert diff.same_key
        assert diff.matches, diff.to_text()
        assert reply["digest"] == local.key_digest


class TestStreamWindows:
    def test_range_fetches_concatenate_to_the_full_stream(self, client):
        digest = client.post_design(_spec("kron"))["digest"]
        budget = 100  # forces several tiles per rank at this scale
        full = client.fetch_tiles(digest, 0, ranks=RANKS, budget=budget)
        assert len(full.tiles) > 1
        total = len(full.tiles)
        mid = total // 2
        head = client.fetch_tiles(
            digest, 0, ranks=RANKS, budget=budget, start=0, stop=mid
        )
        tail = client.fetch_tiles(
            digest, 0, ranks=RANKS, budget=budget, start=mid
        )
        assert [i for i, _ in head.tiles] == list(range(0, mid))
        assert [i for i, _ in tail.tiles] == list(range(mid, total))
        assert (
            np.concatenate([head.rows, tail.rows]).tobytes()
            == full.rows.tobytes()
        )
        assert (
            np.concatenate([head.vals, tail.vals]).tobytes()
            == full.vals.tobytes()
        )

    def test_explicit_range_pulls_exactly_stop_tiles(
        self, server, client, monkeypatch
    ):
        import repro.serve.app as app_module

        digest = client.post_design(_spec("kron"))["digest"]
        budget = 100
        full = client.fetch_tiles(digest, 0, ranks=RANKS, budget=budget)
        total = len(full.tiles)
        assert total > 2
        pulls, builds = [], []
        tiles = app_module.iter_task_tiles
        build = server.server._build_plan

        def spy(plan, task):
            for tile in tiles(plan, task):
                pulls.append(tile)
                yield tile

        def counted_build(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(app_module, "iter_task_tiles", spy)
        monkeypatch.setattr(server.server, "_build_plan", counted_build)
        for start, stop in ((0, 2), (1, 2), (1, total)):
            del pulls[:]
            served = client.fetch_tiles(
                digest, 0, ranks=RANKS, budget=budget, start=start, stop=stop
            )
            assert [i for i, _ in served.tiles] == list(range(start, stop))
            assert len(pulls) == stop
        # The first fetch built the plan; the rest found it on the loop.
        assert builds == []

    def test_budgeted_stream_equals_unbudgeted_bytes(self, client):
        digest = client.post_design(_spec("kron"))["digest"]
        tiled = client.fetch_tiles(digest, 1, ranks=RANKS, budget=100)
        whole = client.fetch_tiles(digest, 1, ranks=RANKS)
        assert len(tiled.tiles) > len(whole.tiles)
        assert tiled.rows.tobytes() == whole.rows.tobytes()
        assert tiled.cols.tobytes() == whole.cols.tobytes()
        assert tiled.vals.tobytes() == whole.vals.tobytes()


class TestIterTaskTiles:
    """The serving generation surface against the worker path, locally."""

    @pytest.mark.parametrize("model_name", ["kron", "skg", "noisy-skg"])
    def test_iter_task_tiles_concatenates_to_sink_blocks(self, model_name):
        _, plan = _local_plan(model_name, budget=100)
        result = execute(
            plan, AssemblySink(), config=RunConfig(scheduler=StaticScheduler())
        )
        blocks = result.sink_result.blocks
        for task in plan.tasks:
            parts = list(iter_task_tiles(plan, task))
            rows = np.concatenate([p[0] for p in parts])
            cols = np.concatenate([p[1] for p in parts])
            vals = np.concatenate([p[2] for p in parts])
            brows, bcols, bvals = blocks[task.rank]
            assert rows.tobytes() == brows.tobytes()
            assert cols.tobytes() == bcols.tobytes()
            assert vals.tobytes() == bvals.tobytes()

