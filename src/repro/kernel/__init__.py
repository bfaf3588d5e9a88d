"""``repro.kernel`` — the incremental scheduling engine.

The paper's runtime manager re-solves the full hybrid-mapping MMKP on every
job arrival and departure; this package turns that decision path into a
delta-based admission pipeline:

* :class:`AdmissionPipeline` / :class:`KernelRun` — the composable
  ``snapshot → candidates → solve → commit`` stages the runtime manager
  drives on every arrival and remap.
* :class:`ScheduleState` / :class:`LoadLedger` — the explicit, incrementally
  maintained companion of the committed schedule: O(1) committed completion
  times, the ghost-prune gate and shared per-segment busy-core rows for the
  governor, the budget admission check and the energy accounting.
* :class:`PackMemo` — the prefix-resumable EDF packing trajectory that lets
  Algorithm 1's configuration probes keep the placements of unaffected jobs
  and replay only the dirty suffix, with a from-scratch fallback whenever
  the prefix diverges.
* :class:`KernelCaches` — content-keyed warm starts (table slices, MMKP-LR
  relaxations, EX-MEM candidate columns) shared across runs, batch jobs and
  DSE sweep points.

Everything the kernel does is an *exact* transformation: resumed packer
prefixes replay the identical float operations from the identical state,
ledger reads return the identical integers a segment rescan would sum, and
cache keys embed table fingerprints plus exact ratios — so schedules, batch
fingerprints and energy totals are bit-identical to full re-solves, which
``tests/kernel/test_kernel_equivalence.py`` asserts for all four schedulers
against the frozen full-re-solve oracle in ``tests/oracle/``.
"""

from repro.kernel.caches import KernelCaches, tables_key
from repro.kernel.packmemo import PackMemo
from repro.kernel.pipeline import AdmissionPipeline, KernelRun
from repro.kernel.state import LoadLedger, ScheduleState

__all__ = [
    "AdmissionPipeline",
    "KernelCaches",
    "KernelRun",
    "LoadLedger",
    "PackMemo",
    "ScheduleState",
    "tables_key",
]
