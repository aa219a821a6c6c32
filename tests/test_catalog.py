"""Tests for the fingerprint-keyed design catalog (repro.catalog)."""

import json

import pytest

from repro.catalog import (
    CATALOG_SCHEMA_VERSION,
    DesignCatalog,
    DesignProperties,
    analytic_properties,
    catalog_key,
    diff_properties,
    empirical_properties,
    key_digest,
    model_name_for_key,
)
from repro.design import DegreeDistribution, PowerLawDesign
from repro.engine import (
    RunConfig,
    StaticScheduler,
    WorkQueueScheduler,
    plan_from_design,
    plan_from_model,
)
from repro.errors import CatalogError
from repro.models import NoisySKGModel, StochasticKroneckerModel
from repro.parallel.stream import generate_to_disk
from repro.validate import check_against_catalog


class TestRecordSchema:
    def test_json_round_trip_is_byte_identical(self):
        record = analytic_properties(PowerLawDesign([3, 4, 5], "center"))
        doc = json.loads(record.to_json())
        again = DesignProperties.from_doc(doc)
        assert again == record
        assert again.to_json() == record.to_json()

    def test_big_int_counts_survive_json(self):
        # Degree counts at paper scale exceed 2**53; the schema stores
        # them as decimal strings so json round-trips stay lossless.
        big = 10**30 + 7
        dist = DegreeDistribution({3: big, big: 1})
        doc = dist.to_json_dict()
        assert doc == {"3": str(big), str(big): "1"}
        assert DegreeDistribution.from_json_dict(doc).to_dict() == {
            3: big,
            big: 1,
        }

    def test_schema_version_mismatch_raises(self):
        record = analytic_properties(PowerLawDesign([3, 4], "center"))
        doc = record.to_doc()
        doc["schema"] = CATALOG_SCHEMA_VERSION + 1
        with pytest.raises(CatalogError):
            DesignProperties.from_doc(doc)

    def test_source_is_validated(self):
        record = analytic_properties(PowerLawDesign([3, 4], "center"))
        with pytest.raises(CatalogError):
            DesignProperties(
                source="vibes",
                model=record.model,
                key_digest=record.key_digest,
                num_vertices=record.num_vertices,
                num_edges=record.num_edges,
                degree_distribution=record.degree_distribution,
                triangles=record.triangles,
                moments=record.moments,
            )

    def test_moments_identities(self):
        design = PowerLawDesign([3, 4, 5], "center")
        record = analytic_properties(design)
        m = record.moments
        assert m.m0 == design.num_vertices
        assert m.m1 == 0
        assert m.m2 == design.num_edges  # 2 * distinct undirected edges
        assert m.m3 == 6 * design.num_triangles


class TestCatalogKeys:
    def test_design_and_plan_share_a_digest(self):
        design = PowerLawDesign([3, 4, 5], "center")
        plan = plan_from_design(design, 3, scramble_seed=7)
        assert key_digest(design) == key_digest(plan)

    def test_rank_count_does_not_change_the_key(self):
        design = PowerLawDesign([3, 4, 5], "center")
        digests = {
            key_digest(plan_from_design(design, n)) for n in (1, 2, 5)
        }
        assert len(digests) == 1

    def test_model_and_plan_share_a_digest(self):
        model = StochasticKroneckerModel(levels=7, num_edges=256, seed=3)
        plan = plan_from_model(model, 2, allow_empty_ranks=True)
        assert key_digest(model) == key_digest(plan)

    def test_seed_changes_the_key(self):
        a = StochasticKroneckerModel(levels=7, num_edges=256, seed=0)
        b = StochasticKroneckerModel(levels=7, num_edges=256, seed=1)
        assert key_digest(a) != key_digest(b)

    def test_model_family_changes_the_key(self):
        a = StochasticKroneckerModel(levels=7, num_edges=256, seed=0)
        b = NoisySKGModel(levels=7, num_edges=256, seed=0)
        assert key_digest(a) != key_digest(b)

    def test_design_and_model_keys_are_disjoint(self):
        assert key_digest(PowerLawDesign([3, 4], "center")) != key_digest(
            StochasticKroneckerModel(levels=4, num_edges=76, seed=0)
        )

    def test_model_name_for_key(self):
        assert (
            model_name_for_key(catalog_key(PowerLawDesign([3, 4], "center")))
            == "kron"
        )
        assert (
            model_name_for_key(
                catalog_key(NoisySKGModel(levels=4, num_edges=16, seed=0))
            )
            == "noisy-skg"
        )

    def test_unkeyable_subject_raises(self):
        with pytest.raises(CatalogError):
            catalog_key(object())


class TestAnalyticClosedForms:
    def test_known_design_values(self):
        record = analytic_properties(PowerLawDesign([3, 4, 5], "center"))
        assert record.source == "analytic"
        assert record.model == "kron"
        assert record.num_vertices == 120
        assert record.num_edges == 692
        assert record.triangles.num_triangles == 287
        assert record.triangles.distinct_edges == 346
        assert record.degree_distribution.total_nnz() == 692

    def test_participation_cross_checks_against_stream(self):
        record = analytic_properties(
            PowerLawDesign([3, 4, 5], "center"), include_participation=True
        )
        assert record.triangles.has_participation
        assert record.triangles.edges_in_triangles == 286
        assert record.triangles.edge_participation_fraction == pytest.approx(
            286 / 346
        )

    def test_skg_streamed_record_matches_model_edge_budget(self):
        model = StochasticKroneckerModel(levels=6, num_edges=200, seed=1)
        record = analytic_properties(model)
        # SKG keeps raw directed samples: duplicates and loops included.
        assert record.num_edges == 200
        assert record.num_vertices == 64
        assert record.model == "skg"

    def test_analytic_is_deterministic(self):
        model = NoisySKGModel(levels=6, num_edges=200, seed=2)
        a = analytic_properties(model, include_participation=True)
        b = analytic_properties(model, include_participation=True)
        assert a.to_json() == b.to_json()


SCHEDULERS = {
    "static": StaticScheduler,
    "work-queue": WorkQueueScheduler,
}


class TestAnalyticEmpiricalParity:
    """The acceptance bar: one schema, two producers, same numbers."""

    @pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
    @pytest.mark.parametrize(
        "model",
        [
            None,  # deterministic kron path
            StochasticKroneckerModel(levels=7, num_edges=512, seed=3),
            NoisySKGModel(levels=7, num_edges=512, seed=3),
        ],
        ids=["kron", "skg", "noisy-skg"],
    )
    def test_parity(self, tmp_path, model, scheduler_name):
        design = PowerLawDesign([5, 3], "center")
        config = RunConfig(
            scheduler=SCHEDULERS[scheduler_name](),
            memory_budget_entries=64,  # force many tiles per rank
            model=model,
        )
        generate_to_disk(design, 2, tmp_path, config=config)

        subject = design if model is None else model
        predicted = analytic_properties(
            subject, include_participation=True, memory_budget_entries=64
        )
        measured = empirical_properties(
            tmp_path, memory_budget_entries=64
        )
        diff = diff_properties(predicted, measured)
        assert diff.same_key, diff.to_text()
        assert diff.matches, diff.to_text()
        assert measured.source == "empirical"
        assert predicted.key_digest == measured.key_digest

    def test_check_against_catalog_facade(self, tmp_path):
        design = PowerLawDesign([5, 3], "center")
        generate_to_disk(design, 2, tmp_path)
        diff = check_against_catalog(tmp_path)
        assert diff.matches, diff.to_text()

    def test_incomplete_run_is_rejected(self, tmp_path):
        design = PowerLawDesign([5, 3], "center")
        generate_to_disk(design, 2, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["status"] = "in_progress"
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CatalogError):
            empirical_properties(tmp_path)


class TestDiff:
    def test_mismatch_is_reported_per_field(self):
        a = analytic_properties(PowerLawDesign([3, 4, 5], "center"))
        b = analytic_properties(PowerLawDesign([3, 4, 9], "center"))
        diff = diff_properties(a, b)
        assert not diff.matches
        assert not diff.same_key
        fields = {f.field for f in diff.mismatches}
        assert "num_vertices" in fields
        assert "num_edges" in fields
        assert "diff" in diff.to_text() or "num_vertices" in diff.to_text()

    def test_self_diff_matches(self):
        record = analytic_properties(PowerLawDesign([3, 4], "center"))
        diff = diff_properties(record, record)
        assert diff.matches
        assert diff.mismatches == ()

    def test_participation_compared_only_when_both_present(self):
        bare = analytic_properties(PowerLawDesign([3, 4, 5], "center"))
        full = analytic_properties(
            PowerLawDesign([3, 4, 5], "center"), include_participation=True
        )
        diff = diff_properties(full, bare)
        # Participation on one side only: not a mismatch.
        assert diff.matches, diff.to_text()


class TestFacadeWithoutCache:
    def test_cacheless_catalog_still_computes(self):
        catalog = DesignCatalog(None)
        record = catalog.analytic(PowerLawDesign([3, 4], "center"))
        assert record.num_vertices == 20
        assert catalog.cache is None
