"""Small measurement helpers: percentiles, spreads, stream, host facts."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

#: Each stream array; a copy touches two of them.  The host reports a
#: 260 MiB (shared, VM-visible) L3, so the "4 x LLC" rule would need a
#: 2 GiB working set and is not met.  Measured instead: at 2 x 128 MiB
#: repeated copies warm into that L3 (16 -> 31 GB/s within five copies),
#: at 2 x 256 MiB the rate is flat at ~17 GB/s from the first copy on.
STREAM_ARRAY_MIB = 256
#: ``--smoke`` checks the plumbing, not the numbers: keep it quick.
SMOKE_STREAM_MIB = 16


def stream_mib(smoke: bool) -> int:
    return SMOKE_STREAM_MIB if smoke else STREAM_ARRAY_MIB


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    if len(values) == 0:
        raise ValueError("percentile of no samples")
    return float(np.percentile(values, q))


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the acceptance rule's run-to-run spread."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def range_spread(values: Sequence[float]) -> float:
    """(max - min) / median: the worst set-to-set disagreement."""
    med = statistics.median(values)
    return (max(values) - min(values)) / med if med else 0.0


def stream_copy_gbs(array_mib: int, repeats: int = 3) -> float:
    """Best-of-``repeats`` ``np.copyto`` rate, counted 2 x nbytes per copy."""
    n = array_mib * 1024 * 1024 // 8
    src = np.ones(n, dtype=np.float64)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the pages in before timing
    best = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = max(best, 2.0 * src.nbytes / (time.perf_counter() - t0))
    return best / 1e9


def peak_rss_mib() -> float:
    """High-water RSS of this process plus its largest reaped child.

    Own peak from ``VmHWM``, not ``ru_maxrss``: the latter survives
    ``exec``, so a freshly spawned worker would report its parent's
    high-water mark — the stream buffers — instead of its own.
    """
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for line in (_read("/proc/self/status") or "").splitlines():
        if line.startswith("VmHWM:"):
            own_kib = int(line.split()[1])
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own_kib + children_kib) / 1024.0


def _read(path: str) -> Optional[str]:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _git(root: Path, *args: str) -> Optional[str]:
    try:
        out = subprocess.run(["git", "-C", str(root), *args], check=True,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def host_info(root: Path) -> Dict[str, object]:
    """Where and from what tree a record was measured."""
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    llc = None
    for idx in (3, 2):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}"
        if _read(f"{base}/size"):
            llc = f"L{_read(f'{base}/level')} {_read(f'{base}/size')}"
            break
    status = _git(root, "status", "--porcelain")
    return {
        "git_sha": _git(root, "rev-parse", "HEAD") or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or "unknown",
        "llc": llc or "unknown",
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "procmpi_start": os.environ.get("REPRO_PROCMPI_START", "default"),
    }


def child_env(src_dir: Path) -> Dict[str, str]:
    """Environment of a workload child: pinned math threads, repo on path."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_dir)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env
