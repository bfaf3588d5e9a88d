"""Frozen reference implementations of the decision stack (test oracle).

The library keeps exactly one implementation of each algorithm: the
columnar, prefix-resumable, delta-based path.  This package preserves the
original ``list[OperatingPoint]`` implementations and the full-re-solve
runtime manager, unchanged, so the equivalence suites, the property tests
and the A/B benchmarks have an independent reference to compare against:

* :func:`~tests.oracle.packer.pack_jobs_edf` — Algorithm 2 built from
  :class:`~repro.core.segment.Schedule` functional updates (``_place_job``);
* :class:`~tests.oracle.schedulers.MMKPMDFOracle` — Algorithm 1 over
  operating-point lists with the list-based MDF priority;
* :class:`~tests.oracle.schedulers.MMKPLROracle` — the MMKP-LR baseline
  building its segment MMKPs from ``MMKPItem`` lists, no solve memo;
* :func:`~tests.oracle.schedulers.schedule_energy` — objective (2a) from
  operating points;
* :class:`~tests.oracle.manager.OracleRuntimeManager` — a runtime manager
  that re-solves the full active set on every activation (no admission
  pipeline, no ledger-gated pruning);
* :func:`~tests.oracle.service.run_batch` — a batch of simulation jobs run
  serially on the reference manager and schedulers.

Nothing under ``src/`` imports this package.  Do not optimise it: its value
is that it does not change.
"""

from tests.oracle.manager import OracleRuntimeManager, oracle_manager
from tests.oracle.packer import pack_jobs_edf
from tests.oracle.schedulers import (
    ListMaximumDifferencePolicy,
    MMKPLROracle,
    MMKPMDFOracle,
    oracle_scheduler,
    schedule_energy,
    segment_energy,
)
from tests.oracle.service import run_batch

__all__ = [
    "ListMaximumDifferencePolicy",
    "MMKPLROracle",
    "MMKPMDFOracle",
    "OracleRuntimeManager",
    "oracle_manager",
    "oracle_scheduler",
    "pack_jobs_edf",
    "run_batch",
    "schedule_energy",
    "segment_energy",
]
