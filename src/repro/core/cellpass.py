"""One matrix cell between its compile and its commit.

:meth:`SPSystem.prepare_cell <repro.core.spsystem.SPSystem.prepare_cell>`
turns a request into a :class:`PreparedCell`: the inventory is built and the
cell's job IDs are reserved.  :func:`execute_cell` then runs the cell's test
phases — a pure function of the prepared cell and the system's definitions —
and :meth:`SPSystem.commit_cell <repro.core.spsystem.SPSystem.commit_cell>`
records the outcome.  ``SPSystem.validate`` runs :func:`execute_cell` inline;
a campaign may run it in the children of a ``fork`` process pool through
:func:`execute_forked_cell`, after :func:`adopt_system` installed the
(forked copy of the) system there.

This module is what runs in those children.  It must not import
``threading``, ``repro.telemetry`` or ``repro.service`` (audited by
``scripts/ci.sh`` stage 6): a child forked while a parent thread held a
lock must never try to take that lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro._common import ReproError
from repro.buildsys.builder import BuildCampaign
from repro.core.runner import CellOutcome

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.spsystem import SPSystem


@dataclass
class PreparedCell:
    """A compiled cell with its reserved job IDs; picklable."""

    experiment: str
    configuration_key: str
    description: Optional[str]
    reference_configuration_key: Optional[str]
    build: BuildCampaign
    #: Sequence number of the first of the cell's reserved job IDs.
    first_job: int


def execute_cell(system: "SPSystem", cell: PreparedCell) -> CellOutcome:
    """Run the test phases of *cell* against *system*'s definitions."""
    return system.runner.execute(
        system.experiment(cell.experiment),
        system.configuration(cell.configuration_key),
        cell.build,
        cell.first_job,
        cell.description,
    )


#: The system a pool child executes against (its forked copy).
_forked_system: Optional["SPSystem"] = None


def adopt_system(system: "SPSystem") -> None:
    """Pool initializer: remember the system the child was forked with."""
    global _forked_system
    _forked_system = system


def execute_forked_cell(cell: PreparedCell) -> CellOutcome:
    """The pool task: :func:`execute_cell` against the adopted system."""
    if _forked_system is None:
        raise ReproError("no system adopted in this process (see adopt_system)")
    return execute_cell(_forked_system, cell)


__all__ = [
    "PreparedCell",
    "adopt_system",
    "execute_cell",
    "execute_forked_cell",
]
