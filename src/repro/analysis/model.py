"""The analyzer's schedule model: an *unvalidated* configuration.

:class:`~repro.core.parameters.PipelineConfig` and
:class:`~repro.core.parameters.RelaxedSpec` refuse to construct illegal
values (``d_l < 1``, empty windows) — which is exactly right for the
execution path and exactly wrong for an analyzer whose job is to
*demonstrate* why those schedules are illegal, witness included.
:class:`ScheduleSpec` is the permissive mirror image: every field is a
plain value, nothing is rejected, and the checkers derive the same
quantities (``n_stages``, ``updates_per_pass``, effective per-stage
windows) that the runtime derives from a validated config.

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

__all__ = ["ScheduleSpec"]


@dataclass(frozen=True)
class ScheduleSpec:
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
        from ..core.parameters import BarrierSpec, RelaxedSpec

        sync = config.sync
        if isinstance(sync, BarrierSpec):
            kind, d_l, d_u, d_t = "barrier", 1, 1, 0
        elif isinstance(sync, RelaxedSpec):
            kind, d_l, d_u, d_t = "relaxed", sync.d_l, sync.d_u, sync.team_delay
        else:
            raise TypeError(f"unknown sync spec {sync!r}")
        return ScheduleSpec(
            teams=config.teams,
            threads_per_team=config.threads_per_team,
            updates_per_thread=config.updates_per_thread,
            block_size=tuple(config.block_size),
            sync_kind=kind,
            d_l=d_l, d_u=d_u, team_delay=d_t,
            storage=config.storage,
            passes=config.passes,
        )

    # -- derived quantities (same formulas as PipelineConfig) -----------------

    @property
    def n_stages(self) -> int:
        """Pipeline depth ``P = n * t``."""
        return self.teams * self.threads_per_team

    @property
    def updates_per_pass(self) -> int:
        """Time levels per pass ``h = n * t * T``."""
        return self.n_stages * self.updates_per_thread

    @property
    def max_shift(self) -> int:
        """Largest region shift within a pass."""
        return self.updates_per_pass - 1

    def stage_of_update(self, u: int) -> int:
        """Pipeline stage owning pass-local update ``u`` (1-based)."""
        return (u - 1) // self.updates_per_thread

    def stage_updates(self, stage: int) -> range:
        """Pass-local update numbers performed by ``stage``."""
        T = self.updates_per_thread
        return range(stage * T + 1, (stage + 1) * T + 1)

    def is_team_front(self, stage: int) -> bool:
        """True on the first thread of a team (mirrors PipelineConfig)."""
        return stage % self.threads_per_team == 0

    def is_team_rear(self, stage: int) -> bool:
        """True on the last thread of a team (mirrors PipelineConfig)."""
        return stage % self.threads_per_team == self.threads_per_team - 1

    def effective_windows(self) -> Tuple[List[int], List[int]]:
        """Per-stage ``(d_l_eff, d_u_eff)`` with the team delay folded in.

        Same arithmetic as :class:`repro.core.sync.RelaxedPolicy`, but
        computed from the raw integers so illegal windows pass through
        unchanged for the automaton to condemn.
        """
        d_l_eff: List[int] = []
        d_u_eff: List[int] = []
        for s in range(self.n_stages):
            dl, du = self.d_l, self.d_u
            if self.is_team_front(s) and s > 0:
                dl += self.team_delay
            if self.is_team_rear(s) and s < self.n_stages - 1:
                du += self.team_delay
            d_l_eff.append(dl)
            d_u_eff.append(du)
        return d_l_eff, d_u_eff

    def structural_problems(self) -> List[str]:
        """Violations that prevent even *building* the geometry.

        These mirror the constructor guards of ``PipelineConfig`` that
        are not schedule semantics but plain type/domain errors; the
        analyzer reports them as ``config-error`` findings instead of
        raising, so a sweep over candidate schedules never crashes.
        """
        probs: List[str] = []
        if self.teams < 1:
            probs.append(f"teams={self.teams} (need >= 1)")
        if self.threads_per_team < 1:
            probs.append(f"threads_per_team={self.threads_per_team} (need >= 1)")
        if self.updates_per_thread < 1:
            probs.append(f"updates_per_thread={self.updates_per_thread} (need >= 1)")
        if self.passes < 1:
            probs.append(f"passes={self.passes} (need >= 1)")
        if len(self.block_size) != 3 or any(int(b) < 1 for b in self.block_size):
            probs.append(f"block_size={self.block_size!r} (three extents >= 1)")
        if self.storage not in ("twogrid", "compressed"):
            probs.append(f"storage={self.storage!r} (twogrid|compressed)")
        if self.sync_kind not in ("barrier", "relaxed"):
            probs.append(f"sync_kind={self.sync_kind!r} (barrier|relaxed)")
        if self.team_delay < 0:
            probs.append(f"team_delay={self.team_delay} (need >= 0)")
        return probs

    def describe(self) -> str:
        """One-line label used as the report subject."""
        sync = ("barrier" if self.sync_kind == "barrier"
                else f"relaxed(d_l={self.d_l},d_u={self.d_u}"
                     + (f",d_t={self.team_delay})" if self.team_delay else ")"))
        return (f"schedule(n={self.teams},t={self.threads_per_team},"
                f"T={self.updates_per_thread},b={self.block_size},{sync},"
                f"{self.storage})")
