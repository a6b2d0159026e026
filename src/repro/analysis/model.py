"""The analyzer's schedule model: an *unvalidated* configuration.

:class:`~repro.core.parameters.PipelineConfig` and
:class:`~repro.core.parameters.RelaxedSpec` refuse to construct illegal
values (``d_l < 1``, empty windows) — which is exactly right for the
execution path and exactly wrong for an analyzer whose job is to
*demonstrate* why those schedules are illegal, witness included.
:class:`ScheduleSpec` is the permissive mirror image: every field is a
plain value and no window is rejected.  It derives nothing on its own:
the stage layout is :class:`~repro.core.parameters.StageLayout`, the
structural rules are :data:`~repro.core.parameters.STRUCTURAL_RULES`
and the synchronisation is the executor's own policy
(:meth:`ScheduleSpec.policy`), all shared with the runtime.

It models exactly the schedules the runtime can build, and nothing the
runtime fixes by construction: the stencil is radius 1
(:class:`~repro.kernels.stencils.StarStencil` refuses anything wider),
and the engine is not a field because every engine runs the same
regions in the same order — the compressed grid's in-place walk
direction is derived from the storage offsets by
:func:`repro.engine.base.plane_axis_and_step`, for every engine alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..core.parameters import BarrierSpec, RelaxedSpec, StageLayout
from ..core.sync import BarrierPolicy, RelaxedPolicy, SyncPolicy, effective_windows

__all__ = ["ScheduleSpec"]


@dataclass(frozen=True)
class ScheduleSpec(StageLayout):
    """A pipelined-blocking schedule as raw numbers, legal or not.

    Field meanings match :class:`~repro.core.parameters.PipelineConfig`;
    ``sync`` is flattened into ``sync_kind`` + window integers so an
    empty or negative window is representable.
    """

    teams: int = 1
    threads_per_team: int = 4
    updates_per_thread: int = 1
    block_size: Tuple[int, int, int] = (8, 1_000_000, 1_000_000)
    sync_kind: str = "barrier"          # "barrier" | "relaxed"
    d_l: int = 1
    d_u: int = 4
    team_delay: int = 0
    storage: str = "twogrid"            # "twogrid" | "compressed"
    passes: int = 1

    @staticmethod
    def from_config(config) -> "ScheduleSpec":
        """Mirror a validated :class:`PipelineConfig` into the loose model."""
        sync = config.sync
        if isinstance(sync, BarrierSpec):
            window = dict(sync_kind="barrier", d_l=1, d_u=1)
        elif isinstance(sync, RelaxedSpec):
            window = dict(sync_kind="relaxed", d_l=sync.d_l, d_u=sync.d_u,
                          team_delay=sync.team_delay)
        else:
            raise TypeError(f"unknown sync spec {sync!r}")
        return ScheduleSpec(
            teams=config.teams, threads_per_team=config.threads_per_team,
            updates_per_thread=config.updates_per_thread,
            block_size=tuple(config.block_size), storage=config.storage,
            passes=config.passes, **window)

    def policy(self) -> SyncPolicy:
        """The executor's synchronisation policy over these raw windows."""
        if self.sync_kind == "barrier":
            return BarrierPolicy(self.n_stages)
        return RelaxedPolicy(*effective_windows(
            self.n_stages, self.threads_per_team, self.d_l, self.d_u,
            self.team_delay))

    def structural_problems(self) -> List[str]:
        """The rules :class:`PipelineConfig` raises on, and those its
        sync types imply, as ``config-error`` text (a sweep never
        crashes).  A negative ``d_u`` would make a stage wait for its
        successor to overtake it; any other window is the analyzer's to
        judge."""
        probs = super().structural_problems()
        if self.sync_kind not in ("barrier", "relaxed"):
            probs.append(f"sync_kind={self.sync_kind!r} (barrier|relaxed)")
        if self.team_delay < 0:
            probs.append(f"team_delay={self.team_delay} (need >= 0)")
        if self.sync_kind == "relaxed" and self.d_u < 0:
            probs.append(f"d_u={self.d_u} (need >= 0)")
        return probs

    def describe(self) -> str:
        """One-line label used as the report subject."""
        sync = ("barrier" if self.sync_kind == "barrier"
                else f"relaxed(d_l={self.d_l},d_u={self.d_u}"
                     + (f",d_t={self.team_delay})" if self.team_delay else ")"))
        return (f"schedule(n={self.teams},t={self.threads_per_team},"
                f"T={self.updates_per_thread},b={self.block_size},{sync},"
                f"{self.storage})")
