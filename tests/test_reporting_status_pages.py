"""Regression tests for the status web pages and their persisted links.

Covers the bugfix sweep: persisted pages are browsable ``.html`` files whose
relative links (index → run pages, run pages → ``../results/*.json``) all
resolve inside the persisted directory tree, non-passed catalogue statuses
render their own colour instead of universal red, and the campaign page ties
the pool timeline, cache accounting and per-cell run links together.
"""

import os
import re

import pytest

from repro.core.runner import RunnerSettings
from repro.core.spsystem import SPSystem
from repro.experiments import build_hermes_experiment
from repro.reporting.summary import ValidationSummaryBuilder
from repro.reporting.webpages import (
    FALLBACK_COLOUR,
    STATUS_COLOURS,
    StatusPageGenerator,
)
from repro.scheduler.spec import CampaignSpec
from repro.storage.catalog import RunRecord


HREF_RE = re.compile(r"href=['\"]([^'\"]+)['\"]")


@pytest.fixture(scope="module")
def campaign_system():
    """A system that ran one two-configuration campaign, pages generated."""
    system = SPSystem(
        runner_settings=RunnerSettings(simulated_seconds_per_test=30.0)
    )
    system.provision_standard_images()
    system.register_experiment(build_hermes_experiment(scale=0.2))
    campaign = system.submit(CampaignSpec(
        experiments=("HERMES",),
        configuration_keys=("SL5_64bit_gcc4.4", "SL6_64bit_gcc4.4"),
        workers=2,
        policy="critical-path",
        deadline_seconds=1.0,
        persist_spec=False,
    )).result()
    pages = StatusPageGenerator(system.storage, system.catalog)
    pages.campaign_page(campaign)
    pages.index_page()
    pages.summary_page(ValidationSummaryBuilder().from_campaign(campaign).render_text())
    return system, campaign


class TestPersistedLinkIntegrity:
    def test_every_relative_link_resolves(self, campaign_system, tmp_path):
        system, _campaign = campaign_system
        system.persist_build_cache()
        written = system.storage.persist(str(tmp_path))
        html_files = [path for path in written if path.endswith(".html")]
        assert html_files, "no browsable pages were persisted"
        checked = 0
        for page_path in html_files:
            with open(page_path, encoding="utf-8") as handle:
                content = handle.read()
            for target in HREF_RE.findall(content):
                assert "://" not in target, f"unexpected external link {target}"
                resolved = os.path.normpath(
                    os.path.join(os.path.dirname(page_path), target)
                )
                assert os.path.isfile(resolved), (
                    f"{os.path.basename(page_path)} links to {target}, "
                    f"but {resolved} does not exist"
                )
                checked += 1
        assert checked > 0, "no links found on any persisted page"

    def test_pages_persist_as_html_files(self, campaign_system, tmp_path):
        system, _campaign = campaign_system
        system.storage.persist(str(tmp_path))
        reports = tmp_path / "reports"
        assert (reports / "index.html").is_file()
        assert (reports / "campaign.html").is_file()
        assert not list(reports.glob("runpage_*.json"))
        index = (reports / "index.html").read_text(encoding="utf-8")
        assert index.startswith("<!DOCTYPE html>")

    def test_html_documents_survive_a_load_round_trip(
        self, campaign_system, tmp_path
    ):
        from repro.storage.common_storage import CommonStorage

        system, _campaign = campaign_system
        system.storage.persist(str(tmp_path))
        loaded = CommonStorage.load(str(tmp_path))
        original = system.storage.get("reports", "index")
        assert loaded.get("reports", "index") == original

    def test_run_page_output_links_climb_out_of_reports(self, campaign_system):
        system, campaign = campaign_system
        page = system.storage.get(
            "reports", f"runpage_{campaign.cells[0].run.run_id}"
        )["html"]
        assert 'href="../results/' in page
        assert 'href="results/' not in page


class TestStatusColours:
    def test_non_passed_statuses_render_their_own_colour(self, tmp_path):
        system = SPSystem()
        generator = StatusPageGenerator(system.storage, system.catalog)
        statuses = {
            "rec-pass": "passed",
            "rec-fail": "failed",
            "rec-skip": "skipped",
            "rec-notrun": "not-run",
            "rec-empty": "empty",
        }
        for index, (run_id, status) in enumerate(sorted(statuses.items())):
            system.catalog.record(
                RunRecord(
                    run_id=run_id,
                    experiment="HERMES",
                    configuration_key="SL5_64bit_gcc4.4",
                    description="colour sweep",
                    timestamp=1356998400 + index,
                    test_statuses={"t": status if status != "empty" else "passed"},
                    overall_status=status,
                )
            )
        page = generator.index_page()
        for run_id, status in statuses.items():
            colour = STATUS_COLOURS.get(status, FALLBACK_COLOUR)
            row = next(
                line for line in page.split("<tr>") if run_id in line
            )
            assert colour in row, f"{run_id} ({status}) misses colour {colour}"
        # A skipped record must not be painted failed-red.
        skipped_row = next(line for line in page.split("<tr>") if "rec-skip" in line)
        assert STATUS_COLOURS["failed"] not in skipped_row
        # The unknown status reaches the grey fallback.
        empty_row = next(line for line in page.split("<tr>") if "rec-empty" in line)
        assert FALLBACK_COLOUR in empty_row


class TestCampaignPage:
    def test_campaign_page_content(self, campaign_system):
        system, campaign = campaign_system
        page = system.storage.get("reports", "campaign")["html"]
        assert "critical-path" in page
        assert "Build cache" in page
        assert "Per-worker utilisation" in page
        assert "Pool timeline" in page
        for cell in campaign.cells:
            assert f"runpage_{cell.run.run_id}.html" in page
        # The 1-second deadline is impossible; the page must say so.
        assert "missed" in page
        assert "(late)" in page

    def test_campaign_page_generates_missing_run_pages(self):
        system = SPSystem(
            runner_settings=RunnerSettings(simulated_seconds_per_test=30.0)
        )
        system.provision_standard_images()
        system.register_experiment(build_hermes_experiment(scale=0.2))
        campaign = system.submit(CampaignSpec(
            experiments=("HERMES",),
            configuration_keys=("SL5_64bit_gcc4.4",),
            persist_spec=False,
        )).result()
        generator = StatusPageGenerator(system.storage, system.catalog)
        generator.campaign_page(campaign)
        for cell in campaign.cells:
            assert system.storage.exists(
                "reports", f"runpage_{cell.run.run_id}"
            )

    def test_timeline_elision_note(self, campaign_system, monkeypatch):
        system, campaign = campaign_system
        monkeypatch.setattr(StatusPageGenerator, "MAX_TIMELINE_ROWS", 3)
        page = StatusPageGenerator(system.storage, system.catalog).campaign_page(
            campaign
        )
        elided = len(campaign.schedule.assignments) - 3
        assert f"... and {elided} more task(s)" in page


class TestCollectionHygiene:
    def test_library_test_classes_opt_out_of_collection(self):
        """Every repro class named Test* must set __test__ = False."""
        import importlib
        import inspect
        import pkgutil

        import repro

        offenders = []
        for module_info in pkgutil.walk_packages(repro.__path__, "repro."):
            module = importlib.import_module(module_info.name)
            for name, item in vars(module).items():
                if (
                    inspect.isclass(item)
                    and name.startswith("Test")
                    and item.__module__.startswith("repro.")
                    and getattr(item, "__test__", True)
                ):
                    offenders.append(f"{item.__module__}.{name}")
        assert not offenders, (
            "classes collectable by pytest despite being library code: "
            + ", ".join(sorted(set(offenders)))
        )
