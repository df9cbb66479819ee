"""The validation runner: executes an experiment's suite on one environment.

This is step (ii) of the sp-system work flow: "A regular build of the
experimental software is done automatically according to the current
prescription of the working environment, and the validation tests are
performed."  One invocation of :meth:`ValidationRunner.run` produces a
:class:`~repro.core.jobs.ValidationRun`:

1. every package of the experiment is compiled (one compilation job each,
   artifacts stored as tar-balls);
2. the standalone tests run, grouped into parallel batches;
3. the analysis chains run sequentially, each step consuming the products of
   the previous one; a failing step causes the remaining steps of that chain
   to be skipped.

A run is split into three steps so that a campaign can execute the test
phases of many cells at once while keeping every recorded byte identical:

* :meth:`ValidationRunner.compile` (in the caller's process, in matrix
  order) reserves the cell's job IDs and builds the inventory through the
  runner's — possibly caching — builder;
* :meth:`ValidationRunner.execute` is a pure function of its arguments: it
  runs the compilation-job bookkeeping and the two test phases on a clock
  that starts at 0 and returns the run plus the ``results`` documents it
  would write, as a :class:`CellOutcome`.  It may run in a forked child;
* :meth:`ValidationRunner.run` (in the caller's process, in matrix order)
  commits: it rebases the outcome's times onto the shared clock, writes
  its documents and artifacts and records the run.

Called without a compiled cell or an outcome, :meth:`ValidationRunner.run`
performs all three steps inline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro._common import ReproError, ValidationError
from repro.buildsys.builder import BuildCampaign, PackageBuilder
from repro.core.jobs import JobStatus, ValidationJob, ValidationRun
from repro.core.testspec import (
    ExecutionContext,
    ExperimentDefinition,
    OutputKind,
    TestKind,
    TestOutput,
    ValidationTestSpec,
)
from repro.environment.compatibility import CompatibilityChecker
from repro.environment.configuration import EnvironmentConfiguration
from repro.hepdata.numerics import NumericContext, context_for_environment
from repro.storage.artifacts import ArtifactStore
from repro.storage.bookkeeping import JobIdAllocator, SimulatedClock, TagRegistry
from repro.storage.catalog import RunCatalog, RunRecord
from repro.storage.common_storage import CommonStorage
from repro.storage.shellvars import ShellVariableInterface


#: Signature of the hook deriving numeric behaviour from an environment.
NumericContextFactory = Callable[[EnvironmentConfiguration], NumericContext]


def default_numeric_context(configuration: EnvironmentConfiguration) -> NumericContext:
    """Benign numeric behaviour: recompilation-level rounding differences only."""
    return context_for_environment(
        label=configuration.key,
        word_size=configuration.word_size,
        compiler_strictness=configuration.compiler.strictness,
        libm_generation=configuration.operating_system.abi_level,
    )


def cell_job_count(experiment: ExperimentDefinition) -> int:
    """Job IDs one run of *experiment* allocates: the run plus one per test.

    The count is static (every package, standalone test and chain step gets
    a job, executed or skipped), so a cell's IDs can be reserved before it
    executes.
    """
    return 1 + experiment.total_test_count()


@dataclass
class CellOutcome:
    """One executed cell, before it is committed.

    Times in :attr:`run` are relative to the cell's start;
    :meth:`ValidationRunner.run` rebases them onto the shared clock.
    """

    run: ValidationRun
    #: The ``results`` documents the cell writes, as (key, document) in
    #: write order.
    puts: List[Tuple[str, Dict[str, object]]]
    #: Simulated seconds the cell took.
    elapsed_seconds: int


class _CellScope:
    """The per-cell state :meth:`ValidationRunner.execute` works on."""

    def __init__(self, prefix: str, first_job: int) -> None:
        self.clock = SimulatedClock(0)
        self.ids = JobIdAllocator(prefix, start=first_job)
        self.puts: List[Tuple[str, Dict[str, object]]] = []


@dataclass
class RunnerSettings:
    """Tunable behaviour of the validation runner."""

    simulated_seconds_per_test: float = 120.0
    seed: int = 20131029
    stop_chain_on_failure: bool = True
    record_in_catalog: bool = True


class ValidationRunner:
    """Builds and validates one experiment on one environment configuration."""

    def __init__(
        self,
        storage: Optional[CommonStorage] = None,
        catalog: Optional[RunCatalog] = None,
        artifact_store: Optional[ArtifactStore] = None,
        clock: Optional[SimulatedClock] = None,
        id_allocator: Optional[JobIdAllocator] = None,
        tag_registry: Optional[TagRegistry] = None,
        builder: Optional[PackageBuilder] = None,
        checker: Optional[CompatibilityChecker] = None,
        shell_interface: Optional[ShellVariableInterface] = None,
        numeric_context_factory: NumericContextFactory = default_numeric_context,
        settings: Optional[RunnerSettings] = None,
    ) -> None:
        # "x if x is not None else default" (not "or"): several of these
        # collaborators define __len__ and an empty instance must not be
        # silently replaced by a fresh private one.
        self.storage = storage if storage is not None else CommonStorage()
        self.catalog = catalog if catalog is not None else RunCatalog(self.storage)
        self.artifact_store = (
            artifact_store if artifact_store is not None else ArtifactStore()
        )
        self.clock = clock if clock is not None else SimulatedClock()
        self.id_allocator = id_allocator if id_allocator is not None else JobIdAllocator()
        self.tag_registry = tag_registry if tag_registry is not None else TagRegistry()
        self.builder = builder if builder is not None else PackageBuilder()
        self.checker = checker if checker is not None else CompatibilityChecker()
        self.shell_interface = (
            shell_interface if shell_interface is not None else ShellVariableInterface()
        )
        self.numeric_context_factory = numeric_context_factory
        self.settings = settings or RunnerSettings()

    # -- public API ----------------------------------------------------------
    def run(
        self,
        experiment: ExperimentDefinition,
        configuration: EnvironmentConfiguration,
        description: Optional[str] = None,
        compiled: Optional[Tuple[BuildCampaign, int]] = None,
        outcome: Optional[CellOutcome] = None,
    ) -> ValidationRun:
        """Run the full suite of *experiment* on *configuration*.

        A cell whose first steps already ran elsewhere resumes from them:
        *compiled* is what :meth:`compile` returned, *outcome* what
        :meth:`execute` returned (a campaign compiles ahead and executes in
        pool workers).  The commit — rebasing the outcome onto the clock,
        writing its documents and artifacts, recording the run — always
        happens here.
        """
        if compiled is None:
            if outcome is not None:
                raise ReproError("an executed cell cannot be committed without its compile")
            compiled = self.compile(experiment, configuration)
        campaign, first_job = compiled
        if outcome is None:
            outcome = self.execute(experiment, configuration, campaign, first_job, description)
        run = outcome.run
        started_at = self.clock.now
        run.started_at += started_at
        for job in run.jobs:
            job.started_at += started_at
        for key, document in outcome.puts:
            self.storage.put("results", key, document)
        for package in experiment.inventory.all():
            tarball = campaign.result_for(package.name).tarball
            if tarball is not None:
                self.artifact_store.store(tarball, label=run.run_id)
        self.clock.advance(outcome.elapsed_seconds)
        self._record(run)
        return run

    # -- step 1: compile (caller's process) -------------------------------------
    def compile(
        self,
        experiment: ExperimentDefinition,
        configuration: EnvironmentConfiguration,
    ) -> Tuple[BuildCampaign, int]:
        """Reserve the cell's job IDs and build its inventory.

        Returns the build campaign and the first reserved job sequence
        number.  A failed build spends only the run ID, as a run that
        allocates its IDs one by one would.
        """
        first_job = self.id_allocator.reserve(cell_job_count(experiment))
        try:
            campaign = self.builder.build_inventory(experiment.inventory, configuration)
        except BaseException:
            self.id_allocator.rewind(first_job + 1)
            raise
        return campaign, first_job

    # -- step 2: execute (pure; may run in a forked child) ----------------------
    def execute(
        self,
        experiment: ExperimentDefinition,
        configuration: EnvironmentConfiguration,
        campaign: BuildCampaign,
        first_job: int,
        description: Optional[str] = None,
    ) -> CellOutcome:
        """Run the compilation bookkeeping and both test phases of one cell.

        Reads the runner's settings and collaborators but changes none of
        its state: IDs come from the range reserved at *first_job*, time
        from a clock starting at 0, and the stored outputs are returned
        instead of written.
        """
        scope = _CellScope(self.id_allocator.prefix, first_job)
        software_versions = dict(configuration.external_map())
        software_versions["operating_system"] = configuration.operating_system.name
        software_versions["compiler"] = configuration.compiler.name
        run = ValidationRun(
            run_id=scope.ids.allocate(),
            experiment=experiment.name,
            configuration_key=configuration.key,
            description=description or f"{experiment.name}-{configuration.key}",
            started_at=scope.clock.now,
            software_versions=software_versions,
        )
        self._run_compilation_jobs(scope, run, experiment, configuration, campaign)
        numeric_context = self.numeric_context_factory(configuration)
        self._run_standalone_phase(
            scope, run, experiment, configuration, campaign, numeric_context
        )
        self._run_chain_phase(scope, run, experiment, configuration, campaign, numeric_context)
        used = scope.ids.allocated_count + 1 - first_job
        if used != cell_job_count(experiment):
            raise ReproError(
                f"run {run.run_id} used {used} job IDs but reserved "
                f"{cell_job_count(experiment)}"
            )
        return CellOutcome(run=run, puts=scope.puts, elapsed_seconds=scope.clock.now)

    # -- phase 1: compilation jobs ------------------------------------------------
    def _run_compilation_jobs(
        self,
        scope: _CellScope,
        run: ValidationRun,
        experiment: ExperimentDefinition,
        configuration: EnvironmentConfiguration,
        campaign: BuildCampaign,
    ) -> None:
        for package in experiment.inventory.all():
            result = campaign.result_for(package.name)
            job_id = scope.ids.allocate()
            if result.succeeded:
                status = JobStatus.PASSED
            elif result.status.value == "skipped":
                status = JobStatus.SKIPPED
            else:
                status = JobStatus.FAILED
            messages = [str(diagnostic) for diagnostic in result.diagnostics]
            output = TestOutput(
                kind=OutputKind.YES_NO,
                passed=status is JobStatus.PASSED,
                yes_no=status is JobStatus.PASSED,
                messages=messages,
            )
            job = ValidationJob(
                job_id=job_id,
                test_name=f"compile-{package.name}",
                experiment=experiment.name,
                configuration_key=configuration.key,
                kind=TestKind.COMPILATION,
                status=status,
                started_at=scope.clock.now,
                duration_seconds=result.build_seconds,
                output=output,
                output_key=self._store_output(
                    scope, run.run_id, f"compile-{package.name}", output
                ),
                messages=messages,
                process="compilation",
            )
            run.add_job(job)
            scope.clock.advance(int(result.build_seconds) + 1)

    # -- phase 2: standalone tests ---------------------------------------------
    def _run_standalone_phase(
        self,
        scope: _CellScope,
        run: ValidationRun,
        experiment: ExperimentDefinition,
        configuration: EnvironmentConfiguration,
        campaign: BuildCampaign,
        numeric_context: NumericContext,
    ) -> None:
        for test in experiment.standalone_tests:
            job = self._execute_test(
                scope, run, test, configuration, campaign, numeric_context, chain_state=None
            )
            run.add_job(job)

    # -- phase 3: analysis chains ------------------------------------------------
    def _run_chain_phase(
        self,
        scope: _CellScope,
        run: ValidationRun,
        experiment: ExperimentDefinition,
        configuration: EnvironmentConfiguration,
        campaign: BuildCampaign,
        numeric_context: NumericContext,
    ) -> None:
        for chain in experiment.chains:
            chain_state: Dict[str, object] = {}
            chain_broken = False
            for step in chain.steps:
                if chain_broken and self.settings.stop_chain_on_failure:
                    job = self._skipped_job(
                        scope, step, configuration,
                        reason=f"previous step of chain {chain.name!r} failed",
                    )
                else:
                    job = self._execute_test(
                        scope, run, step, configuration, campaign, numeric_context,
                        chain_state,
                    )
                if job.status is not JobStatus.PASSED:
                    chain_broken = True
                run.add_job(job)

    # -- job execution -------------------------------------------------------
    def _execute_test(
        self,
        scope: _CellScope,
        run: ValidationRun,
        test: ValidationTestSpec,
        configuration: EnvironmentConfiguration,
        campaign: BuildCampaign,
        numeric_context: NumericContext,
        chain_state: Optional[Dict[str, object]],
    ) -> ValidationJob:
        job_id = scope.ids.allocate()
        started_at = scope.clock.now
        duration = self.settings.simulated_seconds_per_test
        # A test cannot run if a package it needs did not build.
        missing_packages = [
            name for name in test.required_packages
            if name in campaign.results and not campaign.result_for(name).succeeded
        ]
        if missing_packages:
            scope.clock.advance(1)
            return ValidationJob(
                job_id=job_id,
                test_name=test.name,
                experiment=test.experiment,
                configuration_key=configuration.key,
                kind=test.kind,
                status=JobStatus.SKIPPED,
                started_at=started_at,
                duration_seconds=0.0,
                messages=[
                    "required package(s) failed to build: " + ", ".join(missing_packages)
                ],
                chain=test.chain,
                process=test.process,
            )
        # Environment incompatibilities declared by the test itself.
        issues = self.checker.check(test.requirements, configuration)
        errors = [issue for issue in issues if issue.is_error()]
        messages = [str(issue) for issue in issues]
        if errors:
            scope.clock.advance(int(duration * 0.1) + 1)
            output = TestOutput(
                kind=OutputKind.YES_NO, passed=False, yes_no=False, messages=messages
            )
            return ValidationJob(
                job_id=job_id,
                test_name=test.name,
                experiment=test.experiment,
                configuration_key=configuration.key,
                kind=test.kind,
                status=JobStatus.FAILED,
                started_at=started_at,
                duration_seconds=duration * 0.1,
                output=output,
                output_key=self._store_output(scope, run.run_id, test.name, output),
                messages=messages,
                chain=test.chain,
                process=test.process,
            )
        # Run the experiment-provided executor through the thin shell interface.
        shell_environment = self.shell_interface.environment_for(
            run_id=run.run_id,
            test_name=test.name,
            experiment=test.experiment,
            configuration_key=configuration.key,
        )
        context = ExecutionContext(
            configuration=configuration,
            numeric_context=numeric_context,
            seed=self.settings.seed,
            chain_state=chain_state if chain_state is not None else {},
            shell_variables=dict(shell_environment.variables),
        )
        try:
            output = test.executor(context)
            output.validate()
        except ValidationError as error:
            output = TestOutput(
                kind=OutputKind.YES_NO,
                passed=False,
                yes_no=False,
                messages=[f"test execution error: {error}"],
            )
        except Exception as error:  # noqa: BLE001 - a broken experiment test
            # script must never take down the validation framework itself; the
            # crash is recorded as a failed job with the exception as evidence.
            output = TestOutput(
                kind=OutputKind.YES_NO,
                passed=False,
                yes_no=False,
                messages=[f"test crashed: {type(error).__name__}: {error}"],
            )
        output.messages.extend(messages)
        status = JobStatus.PASSED if output.passed else JobStatus.FAILED
        scope.clock.advance(int(duration) + 1)
        return ValidationJob(
            job_id=job_id,
            test_name=test.name,
            experiment=test.experiment,
            configuration_key=configuration.key,
            kind=test.kind,
            status=status,
            started_at=started_at,
            duration_seconds=duration,
            output=output,
            output_key=self._store_output(scope, run.run_id, test.name, output),
            messages=list(output.messages),
            chain=test.chain,
            process=test.process,
        )

    def _skipped_job(
        self,
        scope: _CellScope,
        test: ValidationTestSpec,
        configuration: EnvironmentConfiguration,
        reason: str,
    ) -> ValidationJob:
        job_id = scope.ids.allocate()
        scope.clock.advance(1)
        return ValidationJob(
            job_id=job_id,
            test_name=test.name,
            experiment=test.experiment,
            configuration_key=configuration.key,
            kind=test.kind,
            status=JobStatus.SKIPPED,
            started_at=scope.clock.now,
            duration_seconds=0.0,
            messages=[reason],
            chain=test.chain,
            process=test.process,
        )

    # -- persistence ------------------------------------------------------------
    @staticmethod
    def _store_output(
        scope: _CellScope, run_id: str, test_name: str, output: TestOutput
    ) -> str:
        key = f"{run_id}_{test_name}"
        scope.puts.append((key, output.to_document()))
        return key

    def _record(self, run: ValidationRun) -> None:
        self.storage.put("results", f"runmeta_{run.run_id}", run.to_document())
        self.tag_registry.record(run.description, run.run_id)
        if self.settings.record_in_catalog:
            self.catalog.record(
                RunRecord(
                    run_id=run.run_id,
                    experiment=run.experiment,
                    configuration_key=run.configuration_key,
                    description=run.description,
                    timestamp=run.started_at,
                    software_versions=dict(run.software_versions),
                    test_statuses=run.statuses_by_test(),
                    overall_status=run.overall_status,
                )
            )

    # -- convenience -------------------------------------------------------------
    def load_output(self, output_key: str) -> TestOutput:
        """Re-load a stored test output (used for run-against-run comparison)."""
        document = self.storage.get("results", output_key)
        return TestOutput.from_document(document)  # type: ignore[arg-type]


__all__ = [
    "CellOutcome",
    "ValidationRunner",
    "RunnerSettings",
    "default_numeric_context",
    "NumericContextFactory",
    "cell_job_count",
]
