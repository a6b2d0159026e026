"""Configuration objects for pipelined temporal blocking.

The paper's parameter space (Sect. 1.5: "the parameter space for temporal
blocking schemes, and especially for pipelined blocking, is huge") is
captured here as explicit dataclasses:

* ``n`` teams (one per cache group) of ``t`` threads each,
* ``T`` updates per thread and block,
* block size ``(bz, by, bx)``,
* synchronisation: global barrier, or relaxed counters with window
  ``[d_l, d_u]`` and team delay ``d_t`` (Eq. 3),
* storage scheme: separate grids A/B, or the compressed grid,
* execution engine: how the innermost update runs (:mod:`repro.engine`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Tuple, Union, get_args

__all__ = ["BarrierSpec", "RelaxedSpec", "SyncSpec", "PipelineConfig"]


@dataclass(frozen=True)
class BarrierSpec:
    """Global barrier across all threads after each block update (Fig. 1).

    Semantically: no thread may start traversal block ``k+1`` before every
    thread has completed block ``k``.
    """

    def describe(self) -> str:
        """Short label for reports."""
        return "barrier"


@dataclass(frozen=True)
class RelaxedSpec:
    """Relaxed synchronisation via per-thread progress counters (Eq. 3).

    A thread ``i`` may start its next block iff::

        c_{i-1} - c_i >= d_l   and   c_i - c_{i+1} <= d_u

    where the overall front thread ignores the first condition and the
    overall rear thread the second.  The *team delay* ``d_t`` is "trivially
    implemented by adding d_t to d_l on a team's front thread and to d_u on
    its rear thread" (Sect. 1.3).

    Notes
    -----
    ``d_l >= 1`` is required for correctness (one-block minimum distance
    averts the data race); ``d_u >= d_l`` is required for progress.  A
    predecessor that has finished its traversal no longer constrains its
    successor (its counter is effectively infinite) — without this waiver
    the pipeline would deadlock during drain for ``d_l > 1``.
    """

    d_l: int = 1
    d_u: int = 4
    team_delay: int = 0

    def __post_init__(self) -> None:
        if self.d_l < 1:
            raise ValueError(
                f"d_l={self.d_l} violates the minimum one-block distance "
                "between neighboring threads (data race)"
            )
        if self.d_u < self.d_l:
            raise ValueError(
                f"d_u={self.d_u} < d_l={self.d_l}: the window is empty and "
                "the pipeline cannot make progress"
            )
        if self.team_delay < 0:
            raise ValueError("team_delay must be >= 0")

    @property
    def looseness(self) -> int:
        """The x-axis of Fig. 3 (right): ``d_u - d_l``."""
        return self.d_u - self.d_l

    def describe(self) -> str:
        """Short label for reports."""
        s = f"relaxed(d_l={self.d_l},d_u={self.d_u}"
        if self.team_delay:
            s += f",d_t={self.team_delay}"
        return s + ")"


SyncSpec = Union[BarrierSpec, RelaxedSpec]


@dataclass(frozen=True)
class PipelineConfig:
    """Full parameterisation of a pipelined temporal-blocking run.

    Parameters
    ----------
    teams:
        Number of thread teams ``n`` (one per outer-level cache group;
        2 on the paper's dual-socket Nehalem node).
    threads_per_team:
        Team size ``t`` (4 on the paper's quad-core socket).
    updates_per_thread:
        Updates ``T`` each thread performs per block (paper: optimum
        usually 2, minor gain at 4).
    block_size:
        Block extents ``(bz, by, bx)``; dimensions the block spans fully
        are untiled and receive no shift.
    sync:
        :class:`BarrierSpec` or :class:`RelaxedSpec`.
    storage:
        ``"twogrid"`` for separate A/B grids or ``"compressed"`` for the
        single compressed grid.
    passes:
        Number of full pipeline passes; each pass advances every cell by
        ``updates_per_pass`` time levels (with a barrier between passes).
    engine:
        Kernel-execution engine name (:mod:`repro.engine` registry);
        every engine is bit-identical to the default ``"numpy"``, so
        this knob moves throughput, never results.  Travels with the
        configuration through every backend and the serving layer.
    """

    teams: int = 1
    threads_per_team: int = 4
    updates_per_thread: int = 1
    block_size: Tuple[int, int, int] = (8, 1_000_000, 1_000_000)
    sync: SyncSpec = field(default_factory=BarrierSpec)
    storage: str = "twogrid"
    passes: int = 1
    engine: str = "numpy"

    def __post_init__(self) -> None:
        if self.teams < 1:
            raise ValueError("need at least one team")
        if self.threads_per_team < 1:
            raise ValueError("need at least one thread per team")
        if self.updates_per_thread < 1:
            raise ValueError("T must be >= 1")
        if self.passes < 1:
            raise ValueError("passes must be >= 1")
        if self.storage not in ("twogrid", "compressed"):
            raise ValueError(f"unknown storage scheme {self.storage!r}")
        if len(self.block_size) != 3 or any(int(b) < 1 for b in self.block_size):
            raise ValueError(f"bad block size {self.block_size!r}")
        object.__setattr__(self, "block_size",
                           tuple(int(b) for b in self.block_size))
        # Late import: the engine layer is below core in the import
        # graph, but this module is imported from its package __init__.
        from ..engine import check_engine

        check_engine(self.engine)

    # -- derived quantities ------------------------------------------------------

    @property
    def n_stages(self) -> int:
        """Pipeline depth in threads: ``P = n * t``."""
        return self.teams * self.threads_per_team

    @property
    def updates_per_pass(self) -> int:
        """Time levels advanced per pass: ``n * t * T`` (the paper's ``h``)."""
        return self.n_stages * self.updates_per_thread

    @property
    def max_shift(self) -> int:
        """Largest region shift within a pass: ``n*t*T - 1``."""
        return self.updates_per_pass - 1

    @property
    def total_updates(self) -> int:
        """Time levels advanced by the whole run."""
        return self.passes * self.updates_per_pass

    def stage_team(self, stage: int) -> int:
        """Team index of pipeline stage ``stage``."""
        if not 0 <= stage < self.n_stages:
            raise IndexError(f"stage {stage} out of range")
        return stage // self.threads_per_team

    def is_team_front(self, stage: int) -> bool:
        """True if ``stage`` is the front (first) thread of its team."""
        return stage % self.threads_per_team == 0

    def is_team_rear(self, stage: int) -> bool:
        """True if ``stage`` is the rear (last) thread of its team."""
        return stage % self.threads_per_team == self.threads_per_team - 1

    def stage_updates(self, stage: int) -> range:
        """Pass-local update numbers performed by ``stage`` (1-based)."""
        T = self.updates_per_thread
        return range(stage * T + 1, (stage + 1) * T + 1)

    def to_json(self) -> Dict[str, Any]:
        """A JSON-ready document; :meth:`from_json` rebuilds ``self``."""
        return dict(asdict(self), sync=[type(self.sync).__name__, asdict(self.sync)])

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "PipelineConfig":
        name, args = doc["sync"]
        sync = {c.__name__: c for c in get_args(SyncSpec)}[name](**args)
        return cls(**dict(doc, sync=sync))

    def describe(self) -> str:
        """One-line human-readable summary used by the bench harness."""
        engine = "" if self.engine == "numpy" else f",{self.engine}"
        return (
            f"pipeline(n={self.teams},t={self.threads_per_team},"
            f"T={self.updates_per_thread},b={self.block_size},"
            f"{self.sync.describe()},{self.storage}{engine})"
        )
