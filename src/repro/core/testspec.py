"""Validation test specifications, outputs and experiment definitions.

The experiments define their own validation tests; the sp-system only needs a
uniform way to describe them.  A :class:`ValidationTestSpec` names the test,
states what it needs from the environment, says whether it is a standalone
test (run in parallel) or a step of a sequential analysis chain, and provides
the executor callable that produces a :class:`TestOutput`.  The output "may be
a simple yes/no, a text file, a histogram, a root file or even a link to a
further page" — the :class:`OutputKind` enumeration mirrors those options.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro._common import ValidationError, ensure_identifier
from repro.buildsys.package import PackageInventory
from repro.core.levels import PreservationLevel
from repro.environment.compatibility import SoftwareRequirements
from repro.environment.configuration import EnvironmentConfiguration
from repro.hepdata.histogram import HistogramSet
from repro.hepdata.numerics import NumericContext


class TestKind(enum.Enum):
    """The kinds of validation test the experiments define."""

    # Not a pytest test class, despite the Test* name.
    __test__ = False

    COMPILATION = "compilation"
    STANDALONE = "standalone"
    CHAIN_STEP = "chain-step"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class OutputKind(enum.Enum):
    """The kinds of output file a test can leave on the common storage."""

    YES_NO = "yes-no"
    NUMBERS = "numbers"
    TEXT = "text"
    HISTOGRAMS = "histograms"
    FILE_SUMMARY = "file-summary"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass
class TestOutput:
    """The result payload written by one validation test.

    Exactly one of the payload fields is expected to be populated, matching
    :attr:`kind`; :meth:`validate` enforces that.
    """

    # Not a pytest test class, despite the Test* name (plain class attribute,
    # not a dataclass field).
    __test__ = False

    kind: OutputKind
    passed: bool
    yes_no: Optional[bool] = None
    numbers: Dict[str, float] = field(default_factory=dict)
    text: str = ""
    histograms: Optional[HistogramSet] = None
    file_summary: Dict[str, float] = field(default_factory=dict)
    messages: List[str] = field(default_factory=list)

    def validate(self) -> None:
        """Check that the payload matches the declared output kind."""
        if self.kind is OutputKind.YES_NO and self.yes_no is None:
            raise ValidationError("yes/no output requires the yes_no field")
        if self.kind is OutputKind.NUMBERS and not self.numbers:
            raise ValidationError("numeric output requires a non-empty numbers dict")
        if self.kind is OutputKind.TEXT and not self.text:
            raise ValidationError("text output requires non-empty text")
        if self.kind is OutputKind.HISTOGRAMS and (
            self.histograms is None or len(self.histograms) == 0
        ):
            raise ValidationError("histogram output requires a non-empty HistogramSet")
        if self.kind is OutputKind.FILE_SUMMARY and not self.file_summary:
            raise ValidationError("file-summary output requires a non-empty summary")

    def to_document(self) -> Dict[str, Any]:
        """Serialise the output for the common storage."""
        document: Dict[str, Any] = {
            "kind": self.kind.value,
            "passed": self.passed,
            "messages": list(self.messages),
        }
        if self.yes_no is not None:
            document["yes_no"] = self.yes_no
        if self.numbers:
            document["numbers"] = dict(self.numbers)
        if self.text:
            document["text"] = self.text
        if self.histograms is not None:
            document["histograms"] = self.histograms.to_dict()
        if self.file_summary:
            document["file_summary"] = dict(self.file_summary)
        return document

    @classmethod
    def from_document(cls, document: Dict[str, Any]) -> "TestOutput":
        """Reconstruct an output stored by :meth:`to_document`."""
        histograms = None
        if "histograms" in document:
            histograms = HistogramSet.from_dict(document["histograms"])
        return cls(
            kind=OutputKind(document["kind"]),
            passed=bool(document["passed"]),
            yes_no=document.get("yes_no"),
            numbers=dict(document.get("numbers", {})),
            text=str(document.get("text", "")),
            histograms=histograms,
            file_summary=dict(document.get("file_summary", {})),
            messages=list(document.get("messages", [])),
        )


@dataclass
class ExecutionContext:
    """Everything an executor callable receives when a test runs.

    Attributes
    ----------
    configuration:
        The environment the test runs on.
    numeric_context:
        Environment-induced numeric behaviour (see :mod:`repro.hepdata.numerics`).
    seed:
        Deterministic seed for any Monte Carlo the test performs.
    chain_state:
        Mutable dictionary shared by the steps of one analysis chain; a chain
        step finds its predecessor's products here and leaves its own for the
        next step ("many are run sequentially and form discrete parts in one
        of several full analysis chains").
    shell_variables:
        The thin shell-variable interface values exported for the test.
    """

    configuration: EnvironmentConfiguration
    numeric_context: NumericContext
    seed: int = 1
    chain_state: Dict[str, Any] = field(default_factory=dict)
    shell_variables: Dict[str, str] = field(default_factory=dict)


#: Signature of a test executor.  An executor must be a pure function of
#: its :class:`ExecutionContext`: a campaign may call it in a forked worker
#: process, where changes to anything but the returned output (and the
#: chain state it hands to the next step of its chain) are lost.
TestExecutor = Callable[[ExecutionContext], TestOutput]


@dataclass
class ValidationTestSpec:
    """One validation test as defined by an experiment."""

    name: str
    experiment: str
    kind: TestKind
    executor: TestExecutor
    description: str = ""
    process: str = ""
    requirements: SoftwareRequirements = field(default_factory=SoftwareRequirements)
    required_packages: Tuple[str, ...] = ()
    chain: Optional[str] = None
    chain_index: int = 0
    capability: str = "analysis"

    def __post_init__(self) -> None:
        ensure_identifier(self.name, "test name")
        ensure_identifier(self.experiment, "experiment name")
        if self.kind is TestKind.CHAIN_STEP and not self.chain:
            raise ValidationError(f"chain step {self.name!r} must name its chain")
        if self.kind is not TestKind.CHAIN_STEP and self.chain:
            raise ValidationError(
                f"test {self.name!r} is not a chain step but names chain {self.chain!r}"
            )
        if self.chain_index < 0:
            raise ValidationError("chain_index must be non-negative")


@dataclass
class AnalysisChain:
    """A sequential chain of validation tests.

    "...many are run sequentially and form discrete parts in one of several
    full analysis chains: from MC generation and simulation, through
    multi-level file production and ending with a full physics analysis and
    subsequent validation of the results."
    """

    name: str
    experiment: str
    description: str = ""
    steps: List[ValidationTestSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        ensure_identifier(self.name, "chain name")

    def add_step(self, step: ValidationTestSpec) -> None:
        """Append a step, enforcing chain membership and ordering."""
        if step.kind is not TestKind.CHAIN_STEP:
            raise ValidationError(f"{step.name!r} is not a chain step")
        if step.chain != self.name:
            raise ValidationError(
                f"step {step.name!r} belongs to chain {step.chain!r}, not {self.name!r}"
            )
        if step.chain_index != len(self.steps):
            raise ValidationError(
                f"step {step.name!r} has index {step.chain_index}, expected {len(self.steps)}"
            )
        self.steps.append(step)

    def __len__(self) -> int:
        return len(self.steps)

    def step_names(self) -> List[str]:
        """Ordered names of the chain steps."""
        return [step.name for step in self.steps]


@dataclass
class ExperimentDefinition:
    """An experiment participating in the preservation programme.

    Bundles the experiment's package inventory, its standalone validation
    tests and its analysis chains, together with the DPHEP preservation level
    it is aiming for.
    """

    name: str
    full_name: str
    preservation_level: PreservationLevel
    inventory: PackageInventory
    standalone_tests: List[ValidationTestSpec] = field(default_factory=list)
    chains: List[AnalysisChain] = field(default_factory=list)
    display_colour: str = "grey"

    def __post_init__(self) -> None:
        ensure_identifier(self.name, "experiment name")
        for test in self.standalone_tests:
            if test.experiment != self.name:
                raise ValidationError(
                    f"test {test.name!r} belongs to {test.experiment!r}, not {self.name!r}"
                )
        for chain in self.chains:
            if chain.experiment != self.name:
                raise ValidationError(
                    f"chain {chain.name!r} belongs to {chain.experiment!r}, not {self.name!r}"
                )

    def compilation_test_count(self) -> int:
        """Number of per-package compilation tests (one per package)."""
        return len(self.inventory)

    def chain_test_count(self) -> int:
        """Number of chain-step tests across all chains."""
        return sum(len(chain) for chain in self.chains)

    def total_test_count(self) -> int:
        """Total number of tests the experiment defines.

        Compilation of every package counts as a test ("firstly the
        compilation of approximately 100 individual H1 software packages ...
        is carried out"), plus standalone tests, plus every chain step.
        """
        return (
            self.compilation_test_count()
            + len(self.standalone_tests)
            + self.chain_test_count()
        )

    def all_tests(self) -> List[ValidationTestSpec]:
        """Standalone tests followed by chain steps, in execution order."""
        tests = list(self.standalone_tests)
        for chain in self.chains:
            tests.extend(chain.steps)
        return tests

    def chain(self, name: str) -> AnalysisChain:
        """Return the chain called *name*."""
        for chain in self.chains:
            if chain.name == name:
                return chain
        raise ValidationError(f"experiment {self.name} has no chain {name!r}")

    def processes(self) -> List[str]:
        """All distinct physics processes covered by the tests."""
        processes = {test.process for test in self.all_tests() if test.process}
        return sorted(processes)


__all__ = [
    "TestKind",
    "OutputKind",
    "TestOutput",
    "ExecutionContext",
    "TestExecutor",
    "ValidationTestSpec",
    "AnalysisChain",
    "ExperimentDefinition",
]
