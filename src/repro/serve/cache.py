"""Content-addressed result cache: in-memory LRU plus optional disk.

Entries are keyed by :meth:`SolveJob.content_key` — a SHA-256 over the
problem bytes, the canonical configuration and the backend *semantics*
(see :mod:`repro.serve.job`) — so a hit is exactly a solve whose result
field is guaranteed bit-identical to recomputing.  The cache therefore
returns the stored :class:`~repro.core.pipeline.SolveResult` as-is
(field defensively copied so callers cannot mutate the cached bits);
``stats``/timing metadata reflect the run that *populated* the entry.

The disk tier is a directory of ``<key>.entry`` files, each published
by one atomic rename of a temp file: a JSON header line — the result's
:meth:`~repro.core.pipeline.SolveResult.to_json` document and a SHA-256
over it and the field's dtype, shape and bytes — then the field in
``.npy`` format (read with ``allow_pickle=False``, so bit-identity
survives and nothing is ever unpickled).  The tier is optional — point
it somewhere like ``benchmarks/results/cache/`` to keep warm results
across processes — and untrusted: a truncated, bit-flipped or foreign
entry is a miss and is removed.  Traces stay in the memory tier only.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..core.pipeline import SolveResult
from ..obs import registry as _obs
from ..obs.registry import MetricsRegistry

__all__ = ["ResultCache"]

_KEY_HEX = 64  # SHA-256 digest length; anything else is not our file
_FORMAT = 1    # version of the entry layout


def _clone(result: SolveResult) -> SolveResult:
    """A result whose field the caller may mutate without corrupting us."""
    return replace(result, field=result.field.copy())


def _json(data) -> str:
    # numpy scalars (counters summed over ranks) as plain numbers
    return json.dumps(data, sort_keys=True, default=np.generic.item)


def _digest(field: np.ndarray, meta: dict) -> str:
    """SHA-256 over the field's dtype, shape and bytes and ``meta``."""
    h = hashlib.sha256(_json([field.dtype.str, field.shape, meta]).encode())
    h.update(np.ascontiguousarray(field))  # copies only a strided field
    return h.hexdigest()


class ResultCache:
    """LRU cache of :class:`SolveResult` by content key.

    Thread-safe; the service's worker threads put and the submitting
    thread gets.  ``max_entries`` bounds the in-memory tier only — the
    disk tier (when configured) keeps everything until
    :meth:`clear` (pruning is the operator's call, not silent policy).
    """

    def __init__(self, max_entries: int = 128,
                 disk_dir: Optional[Union[str, Path]] = None) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
        self._entries: "OrderedDict[str, SolveResult]" = OrderedDict()
        self._lock = threading.Lock()
        # Counters live in a per-cache obs registry (mirrored into the
        # process-wide one under ``serve.cache.*``); the attribute names
        # below are the public, read-only view older callers use.
        self._metrics = MetricsRegistry()

    def _count(self, name: str, n: int = 1) -> None:
        self._metrics.inc(name, n)
        _obs.inc(f"serve.cache.{name}", n)

    @property
    def metrics(self) -> MetricsRegistry:
        """This cache's live obs registry (a monitor-attachable source)."""
        return self._metrics

    def _disk_path(self, key: str) -> Optional[Path]:
        return None if self.disk_dir is None else self.disk_dir / f"{key}.entry"

    def _load(self, key: str) -> Optional[SolveResult]:
        """The disk entry for ``key``; a damaged one is removed."""
        path = self._disk_path(key)
        if path is None:
            return None
        try:
            with open(path, "rb") as fh:
                header = json.loads(fh.readline())
                field = np.lib.format.read_array(fh, allow_pickle=False)
            intact = (header["format"] == _FORMAT
                      and header["sha256"] == _digest(field, header["result"]))
        except (OSError, ValueError, KeyError, TypeError):
            intact = False
        if not intact:
            # Absent, truncated, bit-flipped or foreign: not worth keeping.
            path.unlink(missing_ok=True)
            return None
        try:
            return SolveResult.from_json(header["result"], field)
        except (ValueError, KeyError, TypeError):
            # Intact, but not buildable here: its engine is not installed,
            # or another version of the result types wrote it.
            return None

    def get(self, key: str) -> Optional[SolveResult]:
        """The cached result for ``key``, or None; promotes to MRU."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._count("hits")
        if entry is not None:
            # Clone outside the lock: the stored entry is never mutated
            # (puts store their own clones, gets hand out clones), so
            # concurrent hitters need not serialise on the array copy.
            return _clone(entry)
        entry = self._load(key)
        with self._lock:
            if entry is None:
                self._count("misses")
                return None
            self._count("hits")
            self._count("disk_hits")
            self._store(key, entry)
        return _clone(entry)

    def _store(self, key: str, result: SolveResult) -> None:
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._count("evictions")

    def put(self, key: str, result: SolveResult) -> None:
        """Store ``result`` (field copied) in memory and on disk."""
        entry = _clone(result)
        with self._lock:
            self._store(key, entry)
        path = self._disk_path(key)
        if path is None:
            return
        # pid+tid: two threads (or services sharing one cache) may
        # persist the same key concurrently — each needs its own temp
        # file or the interleaved writes publish garbage.
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
        try:
            meta = entry.to_json()
            header = {"format": _FORMAT, "sha256": _digest(entry.field, meta),
                      "result": meta}
            with open(tmp, "wb") as fh:
                fh.write(_json(header).encode() + b"\n")
                np.lib.format.write_array(fh, entry.field, allow_pickle=False)
            os.replace(tmp, path)
        except (OSError, TypeError, ValueError):  # best-effort disk tier
            tmp.unlink(missing_ok=True)

    def clear(self, disk: bool = False) -> None:
        """Drop the memory tier; with ``disk=True`` also our disk files."""
        with self._lock:
            self._entries.clear()
        if disk and self.disk_dir is not None:
            for p in self.disk_dir.glob("*.entry"):
                if len(p.stem) == _KEY_HEX:
                    p.unlink(missing_ok=True)
