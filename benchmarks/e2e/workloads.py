"""The six fixed workloads and their seeded inputs.

Everything the program sees is built here from ``--seed``: arrays and
configs, nothing else.  Only names in ``repro.__all__`` are imported.

Each workload exists because it puts a different layer on the blocking
path (see README.md, "Workloads"); the ``why`` strings are the ones in
BENCHMARK.json and are kept equal to them by tests/test_harness.py.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from oracle import Oracle

#: Fields a solver workload cycles through (and the serve hot set).
N_FIELDS = 4
#: Jobs per serve wave: 4 hot (hits), 3 fresh (misses), 1 in-flight duplicate.
WAVE_HOT = 4
WAVE_FRESH = 3

#: Computed (not measured) memory traffic per site update, Eq. 2.
BYTES_PER_LUP = {"twogrid": 24.0, "compressed": 16.0}


@dataclass(frozen=True)
class Spec:
    """One workload: problem, pipeline parameters and rail."""

    name: str
    why: str
    n: int
    block: Tuple[int, int, int]
    updates_per_thread: int = 2
    passes: int = 2
    storage: str = "twogrid"
    backend: str = "shared"
    topology: Optional[Tuple[int, int, int]] = None
    served: bool = False

    @property
    def shape(self) -> Tuple[int, int, int]:
        return (self.n, self.n, self.n)

    @property
    def bytes_per_lup(self) -> float:
        return BYTES_PER_LUP[self.storage]


SPECS: Tuple[Spec, ...] = (
    Spec("shared-bigblock",
         "128^3 in 16 big blocks: engine arithmetic and storage.gather are "
         "~84% of the time, so an allocation-free numpy path must show here",
         n=128, block=(8, 128, 128)),
    Spec("shared-smallblock",
         "64^3 in 900 tiny block ops: region algebra, sync polling and "
         "per-call overhead dominate, arithmetic is negligible; bigblock "
         "predicts no change",
         n=64, block=(8, 16, 16)),
    Spec("shared-compressed",
         "bigblock on the paper's compressed grid (16 B/LUP, mirrored odd "
         "pass, half the arrays): a twogrid gain paid for here shows, and "
         "peak_rss_mb has a workload where it is the point",
         n=128, block=(8, 128, 128), storage="compressed"),
    Spec("threads-pipeline",
         "the bigblock problem on one OS thread per stage: CounterBoard and "
         "the unconditional assert_legal are on the path only here",
         n=128, block=(8, 128, 128), backend="threads"),
    Spec("dist-halo",
         "128^3 x-split over 2 procmpi ranks, 8 passes of h=2: the only "
         "workload where decomposition, strided halo pack/wait, trapezoid "
         "redundancy and rank launch do anything",
         n=128, block=(8, 128, 128), updates_per_thread=1, passes=8,
         backend="procmpi", topology=(1, 1, 2)),
    Spec("serve-mixed",
         "closed-loop waves of 8 small jobs through Service(workers=1): half "
         "cache hits, half misses, one coalesced duplicate; queue, cache and "
         "hashing dominate, so it bypasses every solver optimisation",
         n=48, block=(8, 48, 48), passes=1, served=True),
)

#: ``--smoke`` sizes: same rails and parameters, grids of 16^3..24^3.
_SMOKE_SIZES: Dict[str, Tuple[int, Tuple[int, int, int]]] = {
    "shared-bigblock": (24, (8, 24, 24)),
    "shared-smallblock": (16, (4, 8, 8)),
    "shared-compressed": (24, (8, 24, 24)),
    "threads-pipeline": (24, (8, 24, 24)),
    "dist-halo": (24, (8, 24, 24)),
    "serve-mixed": (16, (8, 16, 16)),
}

NAMES: Tuple[str, ...] = tuple(s.name for s in SPECS)


def get_spec(name: str, smoke: bool = False) -> Spec:
    for spec in SPECS:
        if spec.name == name:
            if smoke:
                n, block = _SMOKE_SIZES[name]
                return replace(spec, n=n, block=block)
            return spec
    raise KeyError(f"unknown workload {name!r}; choose from {NAMES}")


def make_fields(seed: int, spec: Spec) -> List[np.ndarray]:
    """The ``N_FIELDS`` float64 input fields of a workload."""
    rng = np.random.default_rng([int(seed), NAMES.index(spec.name)])
    return [rng.random(spec.shape) for _ in range(N_FIELDS)]


def make_wave(seed: int, spec: Spec, wave: int,
              ) -> Tuple[List[int], np.ndarray]:
    """Inputs of serve wave ``wave``: hot-set draws and fresh fields."""
    rng = np.random.default_rng([int(seed), NAMES.index(spec.name), 1 + wave])
    hot = [int(i) for i in rng.integers(0, N_FIELDS, size=WAVE_HOT)]
    return hot, rng.random((WAVE_FRESH,) + spec.shape)


def make_problem(spec: Spec):
    """``(grid, config)`` for a workload, built from public names only."""
    from repro import Grid3D, PipelineConfig, RelaxedSpec

    config = PipelineConfig(
        teams=1, threads_per_team=2,
        updates_per_thread=spec.updates_per_thread,
        block_size=spec.block, sync=RelaxedSpec(1, 4),
        storage=spec.storage, passes=spec.passes, engine="numpy")
    return Grid3D(spec.shape), config


#: Untimed operations (solver) / waves (serve) before the first timed one.
WARMUPS = 2


class Loop:
    """Closed-loop budget: run until the deadline, within op limits."""

    def __init__(self, seconds: float, min_ops: int, max_ops: Optional[int]):
        self.deadline = time.perf_counter() + seconds
        self.min_ops = min_ops
        self.max_ops = max_ops
        self.ops = 0

    def more(self) -> bool:
        if self.max_ops is not None and self.ops >= self.max_ops:
            return False
        return self.ops < self.min_ops or time.perf_counter() < self.deadline

    def tick(self) -> None:
        self.ops += 1


class SolverWorkload:
    """An operation is one ``repro.solve`` call on one of four fields."""

    def __init__(self, spec: Spec, seed: int) -> None:
        from repro import solve

        self.spec = spec
        self.grid, self.config = make_problem(spec)
        self.fields = make_fields(seed, spec)
        self._solve = solve
        self.oracle = Oracle()
        self.durations: List[float] = []
        self.useful_updates = 0
        for i in range(WARMUPS):
            self.solve(self.fields[i % N_FIELDS])

    def solve(self, field: np.ndarray, **overrides):
        kwargs = dict(topology=self.spec.topology, backend=self.spec.backend,
                      validate=False)
        kwargs.update(overrides)
        return self._solve(self.grid, field, self.config, **kwargs)

    def operation(self, i: int, **overrides):
        """Time one solve on field ``i``, then check it (untimed)."""
        key = i % N_FIELDS
        t0 = time.perf_counter()
        try:
            result = self.solve(self.fields[key], **overrides)
        except Exception:  # noqa: BLE001 - a raised op is a failed op
            self.durations.append(time.perf_counter() - t0)
            self.oracle.raised()
            return None
        self.durations.append(time.perf_counter() - t0)
        self.oracle.observe(key, result.field)
        self.useful_updates += result.levels_advanced * result.field.size
        return result

    def run(self, loop: Loop) -> None:
        while loop.more():
            self.operation(loop.ops)
            loop.tick()

    def verify(self) -> None:
        """Reference solutions, computed after the timed region."""
        from repro import reference_sweeps

        for key in range(N_FIELDS):
            if key in self.oracle:
                self.oracle.settle(key, reference_sweeps(
                    self.grid, self.fields[key], self.config.total_updates))

    @property
    def wall(self) -> float:
        return sum(self.durations)

    def close(self) -> None:
        pass


class ServeWorkload:
    """An operation is one served job; a wave is 8 of them in flight.

    Per wave: 4 draws from the hot set warmed in set-up (cache hits),
    3 fresh fields (misses) and an immediate duplicate of the first
    fresh one (coalesced while in flight).  Latency is ``submit()`` to
    ``result()`` return for a client waiting in submission order.
    """

    def __init__(self, spec: Spec, seed: int, **service_kwargs) -> None:
        from repro import Service

        self.spec = spec
        self.seed = seed
        self.grid, self.config = make_problem(spec)
        self.hot = make_fields(seed, spec)
        self.oracle = Oracle()
        self.durations: List[float] = []     # per job
        self.kinds: List[str] = []           # hit | miss | dup, per job
        self.submit_s: List[float] = []      # time inside submit(), per job
        self.wave_walls: List[float] = []
        self.useful_updates = 0
        # Default cache: in memory only (cache_dir=None), never on disk.
        self.service = Service(workers=1, **service_kwargs)
        for key, field in enumerate(self.hot):
            cold = self.service.submit(self.grid, field, self.config).result()
            self.oracle.prime(("hot", key), cold.field)
        for w in range(WARMUPS):
            self.wave(w, timed=False)

    def wave(self, wave: int, timed: bool = True) -> None:
        from repro import reference_sweeps

        hot, fresh = make_wave(self.seed, self.spec, wave)
        plan: List[Tuple[str, object, np.ndarray]] = []
        for slot in range(len(hot)):
            plan.append(("hit", ("hot", hot[slot]), self.hot[hot[slot]]))
            if slot < len(fresh):
                plan.append(("miss", ("fresh", slot), fresh[slot]))
            if slot == 0:
                plan.append(("dup", ("fresh", 0), fresh[0]))
        t_wave = time.perf_counter()
        pending = []
        for kind, key, field in plan:
            t0 = time.perf_counter()
            future = self.service.submit(self.grid, field, self.config)
            pending.append((kind, key, t0, time.perf_counter() - t0, future))
        done = []
        for kind, key, t0, in_submit, future in pending:
            try:
                result = future.result()
            except Exception:  # noqa: BLE001 - a raised op is a failed op
                result = None
            done.append((kind, key, time.perf_counter() - t0, in_submit, result))
        wall = time.perf_counter() - t_wave
        if not timed:
            return
        self.wave_walls.append(wall)
        for kind, key, latency, in_submit, result in done:
            self.durations.append(latency)
            self.kinds.append(kind)
            self.submit_s.append(in_submit)
            if result is None:
                self.oracle.raised()
                continue
            self.oracle.observe(key, result.field)
            self.useful_updates += result.levels_advanced * result.field.size
        for slot in range(len(fresh)):
            if ("fresh", slot) in self.oracle:
                self.oracle.settle(("fresh", slot), reference_sweeps(
                    self.grid, fresh[slot], self.config.total_updates))

    def run(self, loop: Loop) -> None:
        while loop.more():
            self.wave(WARMUPS + loop.ops)
            loop.tick()

    def verify(self) -> None:
        from repro import reference_sweeps

        for key, field in enumerate(self.hot):
            self.oracle.settle(("hot", key), reference_sweeps(
                self.grid, field, self.config.total_updates))

    @property
    def wall(self) -> float:
        return sum(self.wave_walls)

    def close(self) -> None:
        self.service.close()
