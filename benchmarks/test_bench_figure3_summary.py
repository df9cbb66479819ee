"""Figure 3 — summary of the validation tests carried out by the HERA experiments.

Figure 3 of the paper shows, for ZEUS (orange, top), H1 (blue, middle) and
HERMES (red, bottom), how their validation tests (grouped by process) fare
under the different configurations of operating system and external
dependencies, after more than 300 validation runs in total.

The benchmark replays a compressed version of that campaign: the three
experiments (scaled-down but structurally complete suites) are validated
repeatedly on all five standard sp-system configurations until more than 300
runs have accumulated, and the resulting experiment x process x configuration
matrix is printed.  Expected shape: predominantly green, with the problems
concentrated in the SL6/64bit migration column — exactly what the paper
reports ("the tests performed so far ... have already identified and helped
to solve several long-standing bugs" during the SL6 migration).
"""

import pytest

from repro.core.spsystem import SPSystem
from repro.reporting.summary import ValidationSummaryBuilder
from repro.scheduler.spec import CampaignSpec

from conftest import emit, emit_text


#: Number of repeated campaign rounds; 3 experiments x 5 configurations x 21
#: rounds = 315 recorded validation runs, comfortably above the >300 quoted.
CAMPAIGN_ROUNDS = 21


def hera_campaign_runs(experiments, rounds=CAMPAIGN_ROUNDS):
    """Validate every experiment on every configuration *rounds* times."""
    system = SPSystem()
    system.provision_standard_images()
    for experiment in experiments:
        system.register_experiment(experiment)
    runs = []
    for round_index in range(rounds):
        for experiment in experiments:
            results = system.submit(CampaignSpec(
                experiments=(experiment.name,),
                description=f"{experiment.name} regular validation round {round_index:02d}",
                persist_spec=False,
            )).result().cycles_for(experiment.name)
            runs.extend(result.run for result in results)
    return system, runs


def test_figure3_hera_validation_summary(benchmark, hera_experiments_small):
    system, runs = benchmark.pedantic(
        hera_campaign_runs, args=(hera_experiments_small,), rounds=1, iterations=1
    )

    # "In total more than 300 runs over sets of pre-defined tests have been
    # performed within the sp-system by the HERA experiments."
    assert system.total_runs() > 300
    assert system.total_runs() == len(runs)

    builder = ValidationSummaryBuilder()
    matrix = builder.from_runs(runs)

    # The matrix is stacked ZEUS / H1 / HERMES over the five configurations.
    assert matrix.experiments == ["ZEUS", "H1", "HERMES"]
    assert len(matrix.configurations) == 5
    # Most cells are green; the problems are confined to the SL6 migration.
    assert matrix.overall_pass_fraction() > 0.9
    problem_configurations = {cell.configuration_key for cell in matrix.problem_cells()}
    assert problem_configurations == {"SL6_64bit_gcc4.4"}

    headline = builder.headline_numbers(system.catalog)
    emit(
        "Figure3-headline",
        "Headline numbers of the HERA validation campaign",
        [
            {"quantity": "validation runs recorded (paper: >300)", "value": headline["total_runs"]},
            {"quantity": "experiments", "value": headline["experiments"]},
            {"quantity": "environment configurations", "value": headline["configurations"]},
            {"quantity": "individual test executions", "value": headline["total_test_executions"]},
            {"quantity": "failing test executions", "value": headline["total_failures"]},
        ],
    )
    emit_text(
        "Figure3",
        "Summary of the validation tests carried out by the HERA experiments",
        matrix.render_text(),
    )
    emit(
        "Figure3-cells",
        "Per experiment / process / configuration cell contents",
        matrix.rows(),
        notes="status 'problems' marks the cells drawn red in the paper's figure",
    )
