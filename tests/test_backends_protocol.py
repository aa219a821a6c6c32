"""Backend-protocol conformance tests, parametrized over all backends."""

import multiprocessing as mp

import pytest

from repro.errors import GenerationError
from repro.parallel import (
    MultiprocessingBackend,
    SerialBackend,
    ThreadBackend,
    backend_worker_count,
    default_start_method,
    get_backend,
    list_backends,
    make_backend,
    resolve_backend,
)
from repro.typing import Backend

ALL_BACKENDS = [SerialBackend, ThreadBackend, MultiprocessingBackend]


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom on {x}")


class MapOnly:
    """An object with ``map`` but no ``submit``: not a backend."""

    name = "map-only"

    def map(self, fn, items):
        return [fn(i) for i in items]


@pytest.fixture(params=ALL_BACKENDS, ids=lambda cls: cls.name)
def backend(request):
    instance = request.param()
    yield instance
    getattr(instance, "shutdown", lambda: None)()


class TestProtocolConformance:
    def test_satisfies_backend_protocol(self, backend):
        assert isinstance(backend, Backend)

    def test_has_registry_name(self, backend):
        assert backend.name in list_backends()


class TestStreamingConformance:
    """The submit/as_completed surface every shipped backend carries."""

    def test_satisfies_streaming_protocol(self, backend):
        # submit/as_completed is the one surface; no backend carries a
        # second, map-shaped one beside it.
        assert callable(backend.submit) and callable(backend.as_completed)
        assert not hasattr(backend, "map")

    def test_submit_result_round_trip(self, backend):
        assert backend.submit(_square, 7).result() == 49

    def test_submit_exception_replayed_by_result(self, backend):
        handle = backend.submit(_boom, 3)
        with pytest.raises(ValueError, match="boom on 3"):
            handle.result()

    def test_as_completed_yields_every_handle(self, backend):
        handles = [backend.submit(_square, i) for i in range(5)]
        done = list(backend.as_completed(handles))
        assert sorted(h.result() for h in done) == [0, 1, 4, 9, 16]
        assert len(done) == len(handles)

    def test_worker_count_positive(self, backend):
        assert backend_worker_count(backend) >= 1


class TestBackendWorkerCount:
    def test_serial_is_one(self):
        assert backend_worker_count(SerialBackend()) == 1

    def test_thread_reports_max_workers(self):
        assert backend_worker_count(ThreadBackend(max_workers=3)) == 3

    def test_multiprocessing_reports_processes(self):
        assert backend_worker_count(MultiprocessingBackend(processes=2)) == 2

    def test_unknown_backend_defaults_to_one(self):
        assert backend_worker_count(MapOnly()) == 1


class TestRegistry:
    def test_all_names_registered(self):
        assert list_backends() == ["serial", "thread", "multiprocessing"]

    @pytest.mark.parametrize("name", ["serial", "thread", "multiprocessing"])
    def test_get_backend_returns_fresh_instance(self, name):
        a, b = get_backend(name), get_backend(name)
        assert a.name == name
        assert a is not b

    def test_make_backend_sizes_pools(self):
        assert make_backend("thread", 2).max_workers == 2
        assert make_backend("multiprocessing", 3).processes == 3
        assert make_backend("serial", 1).name == "serial"
        with pytest.raises(GenerationError, match="single-worker"):
            make_backend("serial", 4)

    def test_unknown_name_rejected(self):
        with pytest.raises(GenerationError, match="unknown backend"):
            get_backend("carrier-pigeon")

    def test_resolve_none_is_serial(self):
        assert resolve_backend(None).name == "serial"

    def test_resolve_name(self):
        assert resolve_backend("thread").name == "thread"

    def test_resolve_instance_passthrough(self):
        instance = SerialBackend()
        assert resolve_backend(instance) is instance

    def test_resolve_rejects_non_backend(self):
        with pytest.raises(GenerationError):
            resolve_backend(42)

    def test_resolve_rejects_map_only_backend(self):
        # One execution surface: an object with only ``map`` is not a
        # backend, and nothing adapts it.
        assert not isinstance(MapOnly(), Backend)
        with pytest.raises(GenerationError, match="Backend instance"):
            resolve_backend(MapOnly())


class TestMultiprocessingStartMethod:
    def test_default_method_is_available_on_platform(self):
        assert default_start_method() in mp.get_all_start_methods()

    def test_backend_defaults_to_platform_method(self):
        assert MultiprocessingBackend().start_method == default_start_method()

    def test_unknown_method_rejected(self):
        with pytest.raises(GenerationError, match="unknown multiprocessing start method"):
            MultiprocessingBackend(start_method="teleport")

    @pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
    def test_explicit_method_maps(self, method):
        if method not in mp.get_all_start_methods():
            pytest.skip(f"start method {method!r} unavailable on this platform")
        backend = MultiprocessingBackend(processes=2, start_method=method)
        try:
            assert backend.start_method == method
            handles = [backend.submit(_square, x) for x in (3, 1, 2)]
            assert [h.result() for h in handles] == [9, 1, 4]
        finally:
            backend.shutdown()


class TestMultiprocessingSubmit:
    def test_persistent_executor_released_by_shutdown(self):
        backend = MultiprocessingBackend(processes=2)
        try:
            assert backend.submit(_square, 4).result() == 16
            assert backend._executor is not None
        finally:
            backend.shutdown()
        assert backend._executor is None


class TestThreadBackend:
    def test_pool_reused_until_shutdown(self):
        backend = ThreadBackend(max_workers=2)
        assert backend.submit(_square, 2).result() == 4
        pool = backend._pool
        assert backend.submit(_square, 3).result() == 9
        assert backend._pool is pool
        backend.shutdown()
        assert backend._pool is None

    def test_shutdown_idempotent(self):
        backend = ThreadBackend()
        backend.shutdown()
        backend.shutdown()

    def test_generator_end_to_end(self):
        from repro.graphs import star_adjacency
        from repro.kron import KroneckerChain
        from repro.parallel import ParallelKroneckerGenerator, VirtualCluster

        chain = KroneckerChain([star_adjacency(3), star_adjacency(4), star_adjacency(5)])
        gen = ParallelKroneckerGenerator(
            chain, VirtualCluster(4), backend=ThreadBackend(max_workers=2)
        )
        assert gen.assemble().equal(chain.materialize())
