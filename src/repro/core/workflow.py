"""The four-phase preservation work flow of the sp-system.

Section 3.1 of the paper describes the life cycle of an experiment inside the
validation framework:

(i)   a preparatory phase: consolidate the software, migrate to the most
      recent OS, remove unnecessary external dependencies, define the tests;
(ii)  regular automated builds and validations, with new OS and software
      versions integrated at intervals;
(iii) intervention when a validation fails, by the host IT department or the
      experiment, depending on the diagnosis;
(iv)  a final phase in which the last working virtual image is conserved.

:class:`PreservationWorkflow` tracks which phase an experiment is in and
enforces the legal transitions between phases.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro._common import ValidationError
from repro.core.levels import PreservationLevel, required_capabilities
from repro.core.testspec import ExperimentDefinition
from repro.environment.compatibility import CompatibilityChecker
from repro.environment.configuration import EnvironmentConfiguration


class WorkflowPhase(enum.Enum):
    """The phases of the preservation work flow."""

    PREPARATION = "preparation"
    REGULAR_VALIDATION = "regular-validation"
    INTERVENTION = "intervention"
    FROZEN = "frozen"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Legal phase transitions.
_ALLOWED_TRANSITIONS: Dict[WorkflowPhase, Tuple[WorkflowPhase, ...]] = {
    WorkflowPhase.PREPARATION: (WorkflowPhase.REGULAR_VALIDATION,),
    WorkflowPhase.REGULAR_VALIDATION: (
        WorkflowPhase.INTERVENTION,
        WorkflowPhase.FROZEN,
    ),
    WorkflowPhase.INTERVENTION: (
        WorkflowPhase.REGULAR_VALIDATION,
        WorkflowPhase.FROZEN,
    ),
    WorkflowPhase.FROZEN: (),
}


@dataclass
class PreparationReport:
    """Findings of the preparatory phase for one experiment."""

    experiment: str
    dependency_problems: List[str] = field(default_factory=list)
    unnecessary_externals: List[str] = field(default_factory=list)
    missing_capabilities: List[str] = field(default_factory=list)
    baseline_incompatibilities: List[str] = field(default_factory=list)
    test_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def ready(self) -> bool:
        """True when the experiment may enter regular validation."""
        return not self.dependency_problems and not self.missing_capabilities

    def issues(self) -> List[str]:
        """All findings as human-readable strings."""
        findings = list(self.dependency_problems)
        findings.extend(
            f"unnecessary external dependency: {product}"
            for product in self.unnecessary_externals
        )
        findings.extend(
            f"missing capability for the chosen preservation level: {capability}"
            for capability in self.missing_capabilities
        )
        findings.extend(self.baseline_incompatibilities)
        return findings


@dataclass
class PhaseTransition:
    """One recorded phase change of an experiment."""

    experiment: str
    from_phase: WorkflowPhase
    to_phase: WorkflowPhase
    timestamp: int
    reason: str


class PreservationWorkflow:
    """Tracks and validates the work-flow phase of each experiment."""

    def __init__(self, checker: Optional[CompatibilityChecker] = None) -> None:
        self.checker = checker or CompatibilityChecker()
        self._phases: Dict[str, WorkflowPhase] = {}
        self._history: List[PhaseTransition] = []

    # -- phase bookkeeping ---------------------------------------------------
    def register(self, experiment_name: str) -> None:
        """Register an experiment; it starts in the preparation phase."""
        if experiment_name in self._phases:
            raise ValidationError(f"experiment {experiment_name!r} already registered")
        self._phases[experiment_name] = WorkflowPhase.PREPARATION

    def phase_of(self, experiment_name: str) -> WorkflowPhase:
        """Current phase of the experiment."""
        try:
            return self._phases[experiment_name]
        except KeyError:
            raise ValidationError(
                f"experiment {experiment_name!r} is not registered"
            ) from None

    def transition(
        self,
        experiment_name: str,
        to_phase: WorkflowPhase,
        timestamp: int,
        reason: str,
    ) -> PhaseTransition:
        """Move an experiment to a new phase, enforcing the legal transitions."""
        current = self.phase_of(experiment_name)
        if to_phase not in _ALLOWED_TRANSITIONS[current]:
            raise ValidationError(
                f"illegal work-flow transition for {experiment_name}: "
                f"{current.value} -> {to_phase.value}"
            )
        transition = PhaseTransition(
            experiment=experiment_name,
            from_phase=current,
            to_phase=to_phase,
            timestamp=timestamp,
            reason=reason,
        )
        self._phases[experiment_name] = to_phase
        self._history.append(transition)
        return transition

    def history(self, experiment_name: Optional[str] = None) -> List[PhaseTransition]:
        """Recorded transitions, optionally restricted to one experiment."""
        if experiment_name is None:
            return list(self._history)
        return [entry for entry in self._history if entry.experiment == experiment_name]

    def experiments(self) -> List[str]:
        """All registered experiments."""
        return sorted(self._phases)

    # -- phase (i): preparation ----------------------------------------------
    def prepare(
        self,
        experiment: ExperimentDefinition,
        baseline_configuration: EnvironmentConfiguration,
    ) -> PreparationReport:
        """Carry out the checks of the preparatory phase.

        The report lists dependency problems in the package inventory,
        external products installed in the baseline but used by no package,
        capabilities required by the chosen preservation level but covered by
        no test, and package requirements already incompatible with the
        baseline environment.
        """
        report = PreparationReport(experiment=experiment.name)
        report.dependency_problems = experiment.inventory.validate_dependencies()

        used_products = set()
        for package in experiment.inventory.all():
            used_products.update(package.requirements.required_products())
        for test in experiment.all_tests():
            used_products.update(test.requirements.required_products())
        report.unnecessary_externals = sorted(
            product
            for product in baseline_configuration.external_map()
            if product not in used_products
        )

        covered_capabilities = {test.capability for test in experiment.all_tests()}
        report.missing_capabilities = [
            capability
            for capability in required_capabilities(experiment.preservation_level)
            if capability not in covered_capabilities
        ]

        for package in experiment.inventory.all():
            for issue in self.checker.errors(package.requirements, baseline_configuration):
                report.baseline_incompatibilities.append(f"{package.name}: {issue}")

        report.test_counts = {
            "compilation": experiment.compilation_test_count(),
            "standalone": len(experiment.standalone_tests),
            "chain_steps": experiment.chain_test_count(),
            "total": experiment.total_test_count(),
        }
        return report

    def ensure_ready(
        self,
        experiment: ExperimentDefinition,
        baseline_configuration: EnvironmentConfiguration,
    ) -> PreparationReport:
        """The preparation report; raises unless the experiment may leave preparation."""
        report = self.prepare(experiment, baseline_configuration)
        if not report.ready:
            raise ValidationError(
                f"experiment {experiment.name} is not ready to leave preparation: "
                + "; ".join(report.issues())
            )
        return report

    def complete_preparation(
        self,
        experiment: ExperimentDefinition,
        baseline_configuration: EnvironmentConfiguration,
        timestamp: int,
    ) -> PreparationReport:
        """Run the preparation checks and, if clean, enter regular validation."""
        report = self.ensure_ready(experiment, baseline_configuration)
        self.transition(
            experiment.name,
            WorkflowPhase.REGULAR_VALIDATION,
            timestamp,
            reason="preparation complete: "
            f"{report.test_counts['total']} tests defined",
        )
        return report


__all__ = [
    "WorkflowPhase",
    "PreparationReport",
    "PhaseTransition",
    "PreservationWorkflow",
]
