"""Tests for the content-addressed catalog cache."""

import json

import pytest

from repro.catalog import (
    CACHE_VERSION,
    CatalogCache,
    DesignCatalog,
    analytic_properties,
    key_digest,
)
from repro.design import PowerLawDesign
from repro.errors import CatalogError
from repro.models import NoisySKGModel, StochasticKroneckerModel
from repro.parallel.stream import generate_to_disk


@pytest.fixture
def design():
    return PowerLawDesign([3, 4, 5], "center")


class TestStoreLoad:
    def test_round_trip(self, tmp_path, design):
        cache = CatalogCache(tmp_path)
        record = analytic_properties(design)
        cache.store(record)
        assert cache.load(record.key_digest, "analytic") == record

    def test_second_store_is_byte_identical(self, tmp_path, design):
        cache = CatalogCache(tmp_path)
        record = analytic_properties(design)
        path = cache.store(record)
        first = path.read_bytes()
        assert cache.store(record).read_bytes() == first

    def test_missing_entry_is_none(self, tmp_path, design):
        cache = CatalogCache(tmp_path)
        assert cache.load(key_digest(design), "analytic") is None

    def test_malformed_digest_raises(self, tmp_path):
        with pytest.raises(CatalogError):
            CatalogCache(tmp_path).entry_path("sha256:../escape", "analytic")


class TestCorruptionHandling:
    """Reads trust nothing; every defect is a silent miss."""

    def _stored(self, tmp_path, design):
        cache = CatalogCache(tmp_path)
        record = analytic_properties(design)
        path = cache.store(record)
        return cache, record, path

    def test_flipped_bit_is_a_miss(self, tmp_path, design):
        cache, record, path = self._stored(tmp_path, design)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))
        assert cache.load(record.key_digest, "analytic") is None

    def test_truncated_file_is_a_miss(self, tmp_path, design):
        cache, record, path = self._stored(tmp_path, design)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        assert cache.load(record.key_digest, "analytic") is None

    def test_garbage_json_is_a_miss(self, tmp_path, design):
        cache, record, path = self._stored(tmp_path, design)
        path.write_text("not json at all\n")
        assert cache.load(record.key_digest, "analytic") is None

    def test_stale_cache_version_is_a_miss(self, tmp_path, design):
        cache, record, path = self._stored(tmp_path, design)
        doc = json.loads(path.read_text())
        doc["cache_version"] = CACHE_VERSION + 1
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        assert cache.load(record.key_digest, "analytic") is None

    def test_checksum_mismatch_is_a_miss(self, tmp_path, design):
        cache, record, path = self._stored(tmp_path, design)
        doc = json.loads(path.read_text())
        # A self-consistent edit (valid JSON, valid schema) that the
        # checksum still catches.
        doc["properties"]["num_edges"] = doc["properties"]["num_edges"] + "0"
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        assert cache.load(record.key_digest, "analytic") is None

    def test_wrong_source_slot_is_a_miss(self, tmp_path, design):
        cache, record, path = self._stored(tmp_path, design)
        # Copy the analytic entry into the empirical slot.
        other = cache.entry_path(record.key_digest, "empirical")
        other.write_bytes(path.read_bytes())
        assert cache.load(record.key_digest, "empirical") is None


class TestDesignCatalogFacade:
    def test_corrupt_entry_recomputed_and_restored(self, tmp_path, design):
        catalog = DesignCatalog(tmp_path / "cache")
        record = catalog.analytic(design)
        path = catalog.cache.entry_path(record.key_digest, "analytic")
        good = path.read_bytes()
        raw = bytearray(good)
        raw[len(raw) // 3] ^= 0x01
        path.write_bytes(bytes(raw))
        again = catalog.analytic(design)
        assert again == record
        assert path.read_bytes() == good

    @pytest.mark.parametrize("source", ["kron", "noisy-skg"])
    def test_warm_lookup_hits_without_recompute(
        self, tmp_path, monkeypatch, request, source
    ):
        import repro.catalog

        if source == "kron":
            subject = request.getfixturevalue("design")
        else:
            # The stochastic record bench_smoke's catalog guard times.
            subject = NoisySKGModel(levels=12, num_edges=8192, seed=1)
        calls = []
        compute = repro.catalog.analytic_properties

        def counting(*args, **kwargs):
            calls.append(args)
            return compute(*args, **kwargs)

        monkeypatch.setattr(repro.catalog, "analytic_properties", counting)
        catalog = DesignCatalog(tmp_path / "cache")
        first = catalog.analytic(subject)
        assert len(calls) == 1
        path = catalog.cache.entry_path(first.key_digest, "analytic")
        mtime = path.stat().st_mtime_ns
        for _ in range(3):
            assert catalog.analytic(subject) == first
        # A warm lookup is one cached read: no recompute, no rewrite.
        assert len(calls) == 1
        assert path.stat().st_mtime_ns == mtime

    def test_refresh_forces_recompute_and_rewrite(self, tmp_path, design):
        catalog = DesignCatalog(tmp_path / "cache")
        first = catalog.analytic(design)
        path = catalog.cache.entry_path(first.key_digest, "analytic")
        good = path.read_bytes()
        path.write_text("garbage")
        second = catalog.analytic(design, refresh=True)
        assert second == first
        assert path.read_bytes() == good

    def test_participation_upgrade_replaces_bare_entry(self, tmp_path, design):
        catalog = DesignCatalog(tmp_path / "cache")
        bare = catalog.analytic(design)
        assert not bare.triangles.has_participation
        full = catalog.analytic(design, include_participation=True)
        assert full.triangles.has_participation
        # The richer record is now what the cache serves.
        hit = catalog.cache.load(full.key_digest, "analytic")
        assert hit is not None and hit.triangles.has_participation

    def test_empirical_side_caches_too(self, tmp_path):
        shard_dir = tmp_path / "shards"
        generate_to_disk(PowerLawDesign([5, 3], "center"), 2, shard_dir)
        catalog = DesignCatalog(tmp_path / "cache")
        first = catalog.empirical(shard_dir)
        path = catalog.cache.entry_path(first.key_digest, "empirical")
        assert path.exists()
        bytes_before = path.read_bytes()
        assert catalog.empirical(shard_dir) == first
        assert path.read_bytes() == bytes_before

    def test_analytic_and_empirical_entries_coexist(self, tmp_path):
        shard_dir = tmp_path / "shards"
        design = PowerLawDesign([5, 3], "center")
        generate_to_disk(design, 2, shard_dir)
        catalog = DesignCatalog(tmp_path / "cache")
        a = catalog.analytic(design)
        e = catalog.empirical(shard_dir)
        assert a.key_digest == e.key_digest
        names = sorted(p.name for p in (tmp_path / "cache").iterdir())
        assert len(names) == 2
        assert names[0].endswith(".analytic.json")
        assert names[1].endswith(".empirical.json")

    def test_model_records_cache_under_their_own_key(self, tmp_path):
        catalog = DesignCatalog(tmp_path / "cache")
        model = StochasticKroneckerModel(levels=6, num_edges=128, seed=5)
        record = catalog.analytic(model)
        assert record.model == "skg"
        assert catalog.cache.load(record.key_digest, "analytic") == record


class TestConcurrentReplacement:
    """The read path tolerates a writer replacing the entry mid-read.

    Regression: ``atomic_write_bytes`` used a pid-only temp filename, so
    two same-process threads storing the same digest shared one temp
    file — one writer's rename could publish the other's half-written
    bytes, and a concurrent ``load`` could observe the torn entry.
    Unique per-call temp names plus the single-read-and-validate retry
    in ``CatalogCache.load`` make every interleaving safe: a load during
    a storm of writers always returns the (identical) record, never a
    spurious miss, never an exception.
    """

    def test_load_survives_interleaved_writer_threads(self, tmp_path, design):
        import threading

        cache = CatalogCache(tmp_path)
        record = analytic_properties(design)
        cache.store(record)
        stop = threading.Event()
        writer_errors = []

        def _hammer_store():
            try:
                while not stop.is_set():
                    cache.store(record)
            except Exception as exc:  # noqa: BLE001 - reported below
                writer_errors.append(exc)

        writers = [
            threading.Thread(target=_hammer_store, daemon=True)
            for _ in range(4)
        ]
        for thread in writers:
            thread.start()
        try:
            misses = 0
            for _ in range(300):
                loaded = cache.load(record.key_digest, "analytic")
                if loaded is None:
                    misses += 1
                else:
                    assert loaded == record
            assert misses == 0, (
                f"{misses}/300 loads missed while writers were replacing "
                "the (identical) entry"
            )
        finally:
            stop.set()
            for thread in writers:
                thread.join(timeout=10)
        assert not writer_errors, f"writer raised: {writer_errors[0]!r}"
        # The storm must leave exactly the entry, no stray temp files.
        leftovers = [
            p.name for p in tmp_path.iterdir() if p.name.startswith(".")
        ]
        assert leftovers == []

    def test_unreadable_then_fixed_entry_is_not_sticky(self, tmp_path, design):
        cache = CatalogCache(tmp_path)
        record = analytic_properties(design)
        path = cache.store(record)
        good = path.read_bytes()
        path.write_bytes(good[: len(good) // 2])
        assert cache.load(record.key_digest, "analytic") is None
        path.write_bytes(good)
        assert cache.load(record.key_digest, "analytic") == record
