"""Measured-performance database: pick engines from data, not defaults.

The engines in :mod:`repro.engine` are bit-identical, so choosing
between them is purely a throughput question — and the answer is
host-specific (the paper's own point: the same schedule lands at very
different fractions of peak depending on how the inner kernel maps to
the machine).  This module keeps the answer *measured*: a small
persistent database of MLUP/s per ``host x engine x kernel x storage x
size-class``, fed by :func:`calibrate` microbenchmarks and by normal
``repro.perf`` runs (:meth:`PerfDB.ingest_document`), and consumed by

* ``repro.autotune(..., perf_db=...)`` — measured engine factors break
  the simulated-MLUP/s tie between engine points;
* ``engine="auto"`` in :func:`repro.api.solve` / the serving layer —
  resolved per job via :func:`resolve_auto_engine`;
* :func:`repro.sim.costmodel.engine_factor` — the analytic model's
  engine-aware throughput term.

Determinism and safety:

* ``rank`` is a *stable* sort on recorded throughput — unmeasured
  engines keep their given order after every measured one, and with an
  empty database (or an unknown host) ``best`` falls back to the static
  :data:`~repro.engine.registry.DEFAULT_ENGINE`.  Auto-selection can
  therefore never be worse-informed than the default it replaces.
* Candidates are always filtered to the default engine's semantics
  class, so an auto decision can never change result bits or split the
  serve cache.
* The database carries a monotonically increasing **generation**
  (bumped on every record/load/clear), which the serve layer folds into
  its memo keys — fresh calibration data invalidates stale ``auto``
  resolutions instead of being ignored.

The on-disk form is a schema-versioned JSON document
(``repro.perfdb/1``), refused on version mismatch like every other
artifact in this package.
"""

from __future__ import annotations

import json
import os
import platform
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .schema import SchemaError

__all__ = [
    "DB_SCHEMA",
    "PerfDB",
    "PerfDBError",
    "host_fingerprint",
    "size_class",
    "default_db",
    "perfdb_generation",
    "resolve_auto_engine",
    "calibrate",
]

#: Identifier + version of the on-disk database layout.
DB_SCHEMA = "repro.perfdb/1"

#: Size-class boundaries in cells: below 32^3 the run is sync-bound,
#: above 128^3 it is memory-bound; in between both terms matter.  The
#: classes keep measurements from one regime from steering another.
_SMALL_CELLS = 32 ** 3
_LARGE_CELLS = 128 ** 3

SIZE_CLASSES = ("small", "medium", "large")


class PerfDBError(SchemaError):
    """A perf database document could not be read or fails validation.

    A :class:`~repro.perf.schema.SchemaError` subtype, so the CLI
    treats an unreadable database like any other incompatible artifact
    (usage error, exit 2) instead of a crash.
    """


def host_fingerprint() -> str:
    """A stable identifier for "this machine class" measurements.

    Coarse on purpose — OS / ISA / core count — so a container rebuild
    or kernel upgrade keeps its calibration, while a different machine
    shape (where the measured ranking may genuinely differ) gets a
    fresh slate.
    """
    return "{}-{}-{}c".format(platform.system().lower(),
                              platform.machine().lower(),
                              os.cpu_count() or 1)


def size_class(shape: Sequence[int]) -> str:
    """Bucket a grid shape into ``small`` / ``medium`` / ``large``."""
    cells = 1
    for s in shape:
        cells *= int(s)
    if cells < _SMALL_CELLS:
        return "small"
    if cells < _LARGE_CELLS:
        return "medium"
    return "large"


def _key(host: str, engine: str, kernel: str, storage: str,
         size_cls: str) -> Tuple[str, str, str, str, str]:
    return (host, engine, kernel, storage, size_cls)


class PerfDB:
    """Measured throughputs keyed host x engine x kernel x storage x size.

    Each key keeps the **best** (maximum) observed MLUP/s and a sample
    count; re-recording can only raise the stored rate, so transient
    slow samples never demote an engine that has proven itself.  All
    mutation happens under a lock (the serve scheduler reads this from
    worker threads) and bumps :attr:`generation`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._data: Dict[Tuple[str, str, str, str, str],
                         Dict[str, float]] = {}
        self._generation = 0

    # -- mutation ---------------------------------------------------------

    def record(self, engine: str, kernel: str, storage: str,
               size_cls: str, mlups: float,
               host: Optional[str] = None) -> None:
        """Fold one measurement in (keeps the max, counts the sample)."""
        if size_cls not in SIZE_CLASSES:
            raise PerfDBError(f"unknown size class {size_cls!r}; "
                              f"choose from {SIZE_CLASSES}")
        if not (mlups > 0.0):
            raise PerfDBError(f"non-positive throughput {mlups!r}")
        k = _key(host or host_fingerprint(), engine, kernel, storage,
                 size_cls)
        with self._lock:
            ent = self._data.setdefault(k, {"mlups": 0.0, "samples": 0})
            ent["mlups"] = max(ent["mlups"], float(mlups))
            ent["samples"] = int(ent["samples"]) + 1
            self._generation += 1

    def clear(self) -> None:
        """Drop every measurement (tests; forced recalibration)."""
        with self._lock:
            self._data.clear()
            self._generation += 1

    # -- queries ----------------------------------------------------------

    @property
    def generation(self) -> int:
        """Monotone counter bumped on record/load/clear.

        Consumers that memoise decisions derived from this database
        (:mod:`repro.serve.autoconf`) key their memos on it, so new
        measurements change future decisions instead of being shadowed
        by stale cache entries.
        """
        with self._lock:
            return self._generation

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def lookup(self, engine: str, kernel: str, storage: str,
               size_cls: str, host: Optional[str] = None
               ) -> Optional[float]:
        """Best recorded MLUP/s for the key, or ``None`` if unmeasured."""
        k = _key(host or host_fingerprint(), engine, kernel, storage,
                 size_cls)
        with self._lock:
            ent = self._data.get(k)
            return float(ent["mlups"]) if ent else None

    def rank(self, engines: Sequence[str], kernel: str, storage: str,
             size_cls: str, host: Optional[str] = None) -> List[str]:
        """``engines`` reordered best-measured-first (stable).

        Unmeasured engines keep their given relative order *after* all
        measured ones — so with no data at all the input order (whose
        head is the caller's static preference) comes back unchanged.
        """
        measured = {e: self.lookup(e, kernel, storage, size_cls, host)
                    for e in engines}

        def sort_key(e: str) -> float:
            m = measured[e]
            return -m if m is not None else float("inf")

        return sorted(engines, key=sort_key)

    def best(self, engines: Sequence[str], kernel: str, storage: str,
             size_cls: str, host: Optional[str] = None,
             default: Optional[str] = None) -> str:
        """The measured-fastest engine, or the static default.

        ``default`` (or the registry's ``DEFAULT_ENGINE``) is returned
        whenever *no* candidate has a measurement — an empty database
        or an unknown host never changes behaviour.
        """
        if default is None:
            from ..engine import DEFAULT_ENGINE  # late: import cycle
            default = DEFAULT_ENGINE
        measured = [(self.lookup(e, kernel, storage, size_cls, host), e)
                    for e in engines]
        with_data = [(m, e) for m, e in measured if m is not None]
        if not with_data:
            return default
        top = max(with_data, key=lambda p: p[0])
        return top[1]

    def factor(self, engine: str, kernel: str, storage: str,
               size_cls: str, baseline: Optional[str] = None,
               host: Optional[str] = None) -> float:
        """Measured throughput ratio ``engine / baseline`` (1.0 unknown).

        The neutral 1.0 whenever either side is unmeasured keeps the
        consumers (autotune ranking, the cost model) exactly where they
        were before any calibration ran.
        """
        if baseline is None:
            from ..engine import DEFAULT_ENGINE  # late: import cycle
            baseline = DEFAULT_ENGINE
        num = self.lookup(engine, kernel, storage, size_cls, host)
        den = self.lookup(baseline, kernel, storage, size_cls, host)
        if num is None or den is None or den <= 0.0:
            return 1.0
        return num / den

    # -- (de)serialisation ------------------------------------------------

    def to_document(self) -> Dict[str, object]:
        """JSON-stable document (sorted rows, schema-stamped)."""
        with self._lock:
            rows = [
                {"host": k[0], "engine": k[1], "kernel": k[2],
                 "storage": k[3], "size_class": k[4],
                 "mlups": ent["mlups"], "samples": int(ent["samples"])}
                for k, ent in sorted(self._data.items())
            ]
        return {"schema": DB_SCHEMA, "measurements": rows}

    def load_document(self, doc: Mapping[str, object]) -> int:
        """Merge a document's measurements in; returns rows absorbed."""
        if doc.get("schema") != DB_SCHEMA:
            raise PerfDBError(
                f"perf database schema {doc.get('schema')!r} does not "
                f"match {DB_SCHEMA!r} (written by an incompatible "
                "version?)")
        rows = doc.get("measurements")
        if not isinstance(rows, list):
            raise PerfDBError("perf database document has no "
                              "measurements list")
        n = 0
        for row in rows:
            try:
                self.record(str(row["engine"]), str(row["kernel"]),
                            str(row["storage"]), str(row["size_class"]),
                            float(row["mlups"]), host=str(row["host"]))
                n += 1
            except (KeyError, TypeError, ValueError) as exc:
                raise PerfDBError(f"malformed measurement {row!r}") from exc
        return n

    def save(self, path: Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_document(), indent=2) + "\n")
        return path

    def load(self, path: Path) -> int:
        path = Path(path)
        try:
            raw = json.loads(path.read_text())
        except OSError as exc:
            raise PerfDBError(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise PerfDBError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise PerfDBError(f"{path}: expected a JSON object")
        return self.load_document(raw)

    # -- ingest from normal perf runs -------------------------------------

    def ingest_document(self, doc: Mapping[str, object],
                        host: Optional[str] = None) -> int:
        """Absorb engine throughputs from a ``BENCH_<suite>.json`` doc.

        Every solver record that names an ``engine`` and ``storage`` in
        its params and reports the host-clock ``mcups`` metric becomes a
        measurement, so routine perf runs keep the database current
        without a separate calibration pass.  Returns rows absorbed.
        """
        n = 0
        for rec in doc.get("records", ()):  # type: ignore[union-attr]
            params = rec.get("params", {})
            engine = params.get("engine")
            storage = params.get("storage")
            shape = params.get("shape")
            metric = rec.get("metrics", {}).get("mcups")
            if not engine or not storage or not shape or not metric:
                continue
            mlups = float(metric.get("value") or 0.0)
            if mlups <= 0.0:
                continue
            self.record(str(engine), str(params.get("kernel", "jacobi")),
                        str(storage), size_class(shape), mlups, host=host)
            n += 1
        return n


#: The process-wide database every ``engine="auto"`` decision consults.
_DEFAULT_DB = PerfDB()


def default_db() -> PerfDB:
    """The process-wide :class:`PerfDB` instance."""
    return _DEFAULT_DB


def perfdb_generation() -> int:
    """Generation of the default database (for memo keys)."""
    return _DEFAULT_DB.generation


def resolve_auto_engine(storage: str,
                        shape: Sequence[int],
                        kernel: str = "jacobi",
                        engines: Optional[Sequence[str]] = None,
                        db: Optional[PerfDB] = None) -> str:
    """The concrete engine an ``engine="auto"`` job runs with.

    Candidates are the engines *registered in this process* that share
    the default engine's semantics class (bit-identical, same serve
    cache entries — auto-selection must never change result bits), with
    the static default first.  The measured-best candidate for this
    host / kernel / storage / size class wins; with no applicable
    measurements the static default is returned unchanged.
    """
    from ..engine import (DEFAULT_ENGINE, available_engines,
                          engine_semantics)  # late: import cycle

    base_sem = engine_semantics(DEFAULT_ENGINE)
    registered = available_engines()
    if engines is None:
        engines = registered
    # An explicit candidate list may name optional engines that are not
    # installed here — they are silently skipped, never an error: auto
    # must resolve on every host.
    candidates = [DEFAULT_ENGINE] + [
        e for e in engines
        if e != DEFAULT_ENGINE and e in registered
        and engine_semantics(e) == base_sem]
    # ``is not None``, not truthiness: an empty PerfDB has len() 0.
    d = db if db is not None else _DEFAULT_DB
    return d.best(candidates, kernel, storage, size_class(shape),
                  default=DEFAULT_ENGINE)


def calibrate(engines: Optional[Sequence[str]] = None,
              storages: Sequence[str] = ("twogrid", "compressed"),
              shape: Sequence[int] = (24, 24, 24),
              repeats: int = 2,
              db: Optional[PerfDB] = None,
              quick: bool = False,
              timer: Optional[Callable[[], float]] = None,
              size_classes: Optional[Sequence[str]] = None,
              ) -> Dict[Tuple[str, str], float]:
    """Microbenchmark every engine x storage point and record the rates.

    A small real pipelined solve per point (uncertified — the
    schedule is a stock legal one; we are timing kernels, not
    re-proving legality), best-of-``repeats`` MLUP/s, recorded under
    this host for the ``jacobi`` kernel.  By default the measurement
    seeds **all** size classes (a microbenchmark is the only data a
    fresh host has; routine perf-run ingest later refines each class
    with same-sized measurements).  Returns ``{(engine, storage):
    mlups}`` for reporting.

    ``quick=True`` halves the work for smoke tests/CI;  ``timer`` is
    injectable so tests can drive deterministic fake clocks.
    """
    from dataclasses import replace

    import numpy as np

    from ..core.parameters import PipelineConfig, RelaxedSpec
    from ..core.pipeline import run_pipelined
    from ..engine import available_engines
    from ..grid import Grid3D, random_field

    if engines is None:
        engines = available_engines()
    if quick:
        shape = tuple(min(int(s), 16) for s in shape)
        repeats = 1
    clock = timer or time.perf_counter
    d = db if db is not None else _DEFAULT_DB  # empty PerfDB is falsy
    classes = tuple(size_classes) if size_classes else SIZE_CLASSES
    grid = Grid3D(tuple(int(s) for s in shape))
    field = random_field(grid.shape, np.random.default_rng(0))
    results: Dict[Tuple[str, str], float] = {}
    for storage in storages:
        cfg = PipelineConfig(teams=1, threads_per_team=2,
                             updates_per_thread=2, block_size=(4, 64, 64),
                             sync=RelaxedSpec(1, 2), storage=storage)
        for engine in engines:
            ecfg = replace(cfg, engine=engine)
            best = 0.0
            for _ in range(max(1, repeats)):
                t0 = clock()
                res = run_pipelined(grid, field, ecfg)
                t1 = clock()
                cells = res.cells_updated
                dt = t1 - t0
                if dt > 0.0 and cells > 0:
                    best = max(best, cells / dt / 1e6)
            if best > 0.0:
                results[(engine, storage)] = best
                for cls in classes:
                    d.record(engine, "jacobi", storage, cls, best)
    return results
