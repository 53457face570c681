"""Static verification tooling: model checker and static analysis.

Two tools live here, both with console entry points:

* ``repro-verify`` (:mod:`repro.analysis.verify`) — an explicit-state
  model checker that drives a tiny two-processor machine through every
  protocol-relevant event, enumerates the reachable quotient of
  (V-cache state x R-subentry state x peer state x write-buffer
  state) for one tracked physical block, and checks the DESIGN.md §5
  invariants on every reachable state.
* ``repro-lint`` (:mod:`repro.analysis.lint`) — the one static
  analysis front end.  It parses each file once and runs the
  stdlib-``ast`` RPL rules (metric-name validity, tracer slot
  discipline, ``__slots__`` on hot classes, no allocation in hot
  loops) and the call-graph RPS pack of :mod:`repro.analysis.sanitize`
  (determinism taint — nondeterminism sources reaching cache keys,
  journal records, simulation state — and asyncio hazards in the
  serve layer).  The RPS runtime companions —
  :class:`~repro.analysis.runtime.DeterminismGuard` and
  :class:`~repro.analysis.runtime.LoopStallWatchdog` — live in
  :mod:`repro.analysis.runtime` and back the ``--sanitize`` flags on
  ``repro-experiment`` and ``repro-serve``.
"""

from .explore import ExplorationLimitError, ScenarioReport, Transition, explore
from .lint import Finding, lint_paths, lint_source, lint_sources
from .model import SCENARIOS, ProtocolModel, Scenario, snoop_table
from .runtime import DeterminismGuard, DeterminismViolation, LoopStallWatchdog

__all__ = [
    "DeterminismGuard",
    "DeterminismViolation",
    "ExplorationLimitError",
    "Finding",
    "LoopStallWatchdog",
    "ProtocolModel",
    "SCENARIOS",
    "Scenario",
    "ScenarioReport",
    "Transition",
    "explore",
    "lint_paths",
    "lint_source",
    "lint_sources",
    "snoop_table",
]
