"""repro.serve — the concurrent solve service on top of ``repro.solve``.

Every solver front-end below this package is a blocking call, one
problem at a time, and identical requests recompute from scratch.  This
package is the serving layer the ROADMAP's "heavy traffic" north star
asks for:

* a **job model** (:class:`SolveJob`) with a deterministic
  content key — SHA-256 over the problem bytes, canonical config and
  backend *semantics* (:mod:`repro.serve.job`);
* **persistent worker pools** — warm
  :class:`~repro.dist.solver.ProcSolverSession`\\ s, checked out of the
  service's own :class:`~repro.dist.solver.SessionPool`, keep procmpi
  rank processes and their shared-memory segments alive across jobs;
  thread slots serve ``shared``/``simmpi``;
* a **scheduler** that shards a priority queue across pool slots,
  coalesces duplicate in-flight jobs and pulls compatible small
  solves forward onto one worker (:mod:`repro.serve.scheduler`);
* a **content-addressed result cache** — in-memory LRU plus an optional
  on-disk tier, returning bit-identical results on hit
  (:mod:`repro.serve.cache`);
* a **futures front-end** — the :class:`Service` context manager
  (:mod:`repro.serve.service`): ``with Service() as svc``, then
  ``svc.submit`` / ``svc.map``;
* ``config="auto"`` resolution through :func:`repro.autotune`
  (:mod:`repro.serve.autoconf`), which ranks on the machine model and
  so is imported on first use, like the distributed rail: a service
  that only runs in-thread jobs loads neither.
"""

from .cache import ResultCache
from .futures import ServeCancelled, SolveFuture, wait_all
from .job import SolveJob
from .scheduler import Entry, JobQueue, session_signature
from .service import Service, ServiceStats


__all__ = [
    "SolveJob",
    "SolveFuture",
    "ServeCancelled",
    "wait_all",
    "ResultCache",
    "Entry",
    "JobQueue",
    "session_signature",
    "Service",
    "ServiceStats",
]
