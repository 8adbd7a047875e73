"""Shared execution context and the run-everything entry point.

All figure experiments slice the same underlying campaign: one suite sweep
over the Fire cluster plus one reference run on SystemG.  Running that
campaign takes a few seconds of simulation, so :class:`SharedContext`
computes it lazily once and every driver reuses it — exactly how the paper's
authors computed all their figures from one set of measurement logs.

``tgi campaign`` runs the same two measurements as the two jobs of
:func:`~repro.campaign.jobs.paper_jobs`; both seed fresh executors the same
way, so a campaign and a context describe the same numbers bit-for-bit
(``tests/test_campaign_runner.py`` pins this).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .. import telemetry as tele
from ..benchmarks.runner import SweepResult, run_sweep
from ..benchmarks.suite import SuiteResult
from ..core.ree import ReferenceSet
from .config import (
    ExperimentConfig,
    PAPER_CONFIG,
    build_executor,
    build_reference,
    build_suite,
)

__all__ = ["SharedContext", "run_all"]


class SharedContext:
    """Lazily-computed campaign shared by the experiment drivers.

    Parameters
    ----------
    config:
        The run configuration (defaults to the calibrated paper config).
    """

    def __init__(self, config: ExperimentConfig = PAPER_CONFIG):
        self.config = config
        self._reference: Optional[Tuple[ReferenceSet, SuiteResult]] = None
        self._sweep: Optional[SweepResult] = None

    @property
    def reference(self) -> ReferenceSet:
        """Reference efficiencies from the SystemG run."""
        if self._reference is None:
            with tele.span("experiments.reference"):
                self._reference = build_reference(self.config)
        return self._reference[0]

    @property
    def reference_suite_result(self) -> SuiteResult:
        """The SystemG suite run itself (Table I's raw data)."""
        if self._reference is None:
            _ = self.reference
        return self._reference[1]

    @property
    def sweep(self) -> SweepResult:
        """The Fire scaling sweep behind Figures 2-6."""
        if self._sweep is None:
            with tele.span("experiments.sweep"):
                executor = build_executor(self.config)
                suite = build_suite(self.config)
                self._sweep = run_sweep(suite, executor, self.config.core_counts)
        return self._sweep


def run_all(config: ExperimentConfig = PAPER_CONFIG) -> Dict[str, object]:
    """Run every registered experiment, returning id -> result."""
    from .registry import EXPERIMENTS  # local import to avoid cycle

    context = SharedContext(config)
    return {exp_id: entry.run(context) for exp_id, entry in EXPERIMENTS.items()}
