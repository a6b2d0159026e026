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
  coalesces duplicate in-flight jobs and batches compatible small
  solves onto one warm slot (:mod:`repro.serve.scheduler`);
* a **content-addressed result cache** — in-memory LRU plus an optional
  on-disk tier, returning bit-identical results on hit
  (:mod:`repro.serve.cache`);
* a **futures front-end** — :func:`submit`, :func:`map_jobs` and the
  :class:`Service` context manager (:mod:`repro.serve.service`),
  re-exported as ``repro.submit`` / ``repro.map``;
* ``config="auto"`` resolution through :func:`repro.autotune`
  (:mod:`repro.serve.autoconf`), which ranks on the machine model and
  so is imported on first use, like the distributed rail: a service
  that only runs in-thread jobs loads neither.
"""

from .cache import ResultCache
from .futures import ServeCancelled, SolveFuture, wait_all
from .job import SolveJob
from .scheduler import Entry, JobQueue, session_signature
from .service import (
    Service,
    ServiceStats,
    configure,
    default_service,
    map_jobs,
    shutdown,
    submit,
)

#: ``repro.map`` — the ergonomic name; ``map_jobs`` is the same object
#: for callers who shadowed the builtin.
map = map_jobs


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
    "configure",
    "default_service",
    "submit",
    # "map" stays a module attribute but out of __all__: star-imports
    # must not shadow the builtin in the user's namespace.
    "map_jobs",
    "shutdown",
]
