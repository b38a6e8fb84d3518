"""MPI-like parallel substrate with rank-level fault tolerance.

The NUMARCK paper runs inside MPI simulations (FLASH) and uses the authors'
parallel k-means package.  This repo has no MPI runtime, so this package
provides a small SPMD harness with the same *shape* as ``mpi4py``:

* :class:`Comm` -- communicator protocol (``rank``/``size``, ``send``/
  ``recv``, ``bcast``, ``scatter``, ``gather``, ``allgather``, ``reduce``,
  ``allreduce``, ``barrier``), plus the failure-absorbing ``*_degraded``
  collectives and :meth:`Comm.phase` labelling.
* :class:`SerialComm` -- trivial single-process communicator, used by
  default everywhere so the library works without spawning anything.
* :class:`PipeComm` + :func:`run_spmd` -- real multi-process SPMD execution
  over OS pipes with CRC-framed, acknowledged, deadline-bounded messaging:
  a dead, hung, or flaky peer raises :class:`RankFailureError` on every
  survivor instead of deadlocking, and ``run_spmd`` can respawn-and-retry
  idempotent rank functions.
* :class:`RankFaultInjector` -- chaos hook injecting crash / hang / drop /
  bit-flip / transient faults into the comm path, the communication-side
  sibling of :class:`repro.restart.faults.DiskFaultInjector`.
* :mod:`repro.parallel.partition` -- 1-D block decompositions.

Every distributed algorithm in the repo is written against :class:`Comm`,
so the serial and multi-process paths execute identical code.
"""

from repro.parallel.comm import Comm, PipeComm, RankOutcome, SerialComm, run_spmd
from repro.parallel.faults import CommEvent, RankFailureError, RankFaultInjector
from repro.parallel.insitu import GlobalStats, parallel_encode
from repro.parallel.partition import block_partition, partition_bounds, partition_slices

__all__ = [
    "Comm",
    "SerialComm",
    "PipeComm",
    "RankOutcome",
    "run_spmd",
    "RankFailureError",
    "RankFaultInjector",
    "CommEvent",
    "parallel_encode",
    "GlobalStats",
    "block_partition",
    "partition_bounds",
    "partition_slices",
]
