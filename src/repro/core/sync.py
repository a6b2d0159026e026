"""Synchronisation policies as readiness predicates over progress counters.

Both execution rails share these semantics:

* the *functional* executor (:mod:`repro.core.executor`) asks "which
  threads may start their next block now?" to enumerate legal
  interleavings;
* the *performance* simulator (:mod:`repro.sim.des_pipeline`) asks the
  same question to decide when a simulated thread unblocks.

A policy sees the per-stage progress counters ``c`` (blocks completed in
the current pass) plus which stages have finished their traversal, and
answers readiness per stage.  This mirrors the paper's volatile-counter
protocol: "only thread t_i updates its own counter c_i; all others read
its updated value by means of the standard cache coherence mechanisms".
"""

from __future__ import annotations

import threading
from typing import List, Optional, Protocol, Sequence, Tuple

from .parameters import BarrierSpec, PipelineConfig, RelaxedSpec

__all__ = ["SyncPolicy", "BarrierPolicy", "RelaxedPolicy", "effective_windows",
           "make_policy", "CounterBoard", "SyncAborted", "SyncWaitTimeout"]


class SyncPolicy(Protocol):
    """Protocol for synchronisation policies."""

    def ready(self, stage: int, counters: Sequence[int], finished: Sequence[bool]) -> bool:
        """May ``stage`` start its next block given counters/finish flags?"""
        ...

    def blockers(self, stage: int, counters: Sequence[int], finished: Sequence[bool]) -> List[int]:
        """Stages whose counter must change before ``stage`` becomes ready.

        What :meth:`CounterBoard.describe_wait` names when a schedule is
        stuck (deadlock on the interleaver, watchdog on stage threads).
        """
        ...


class BarrierPolicy:
    """Global barrier after each block update (Fig. 1).

    The threads run *staggered*: stage ``s`` trails stage ``s-1`` by
    exactly one block, so stage ``s`` processes its block ``k`` in global
    round ``k + s`` ("the distance is kept constant by imposing a global
    barrier across all threads after each block update", Sect. 1.3).  A
    stage is ready iff its next round equals the minimum outstanding
    round.  Within a round the block operations are mutually independent
    (each stage's reads were produced in strictly earlier rounds), so any
    intra-round execution order is legal — which the adversarial
    interleaving tests exercise.
    """

    def __init__(self, n_stages: int) -> None:
        if n_stages < 1:
            raise ValueError("need at least one stage")
        self.n_stages = n_stages

    def _round(self, stage: int, counters: Sequence[int]) -> int:
        return counters[stage] + stage

    def ready(self, stage: int, counters: Sequence[int], finished: Sequence[bool]) -> bool:
        """Ready iff this stage sits at the current barrier round."""
        rounds = [self._round(s, counters) for s in range(self.n_stages)
                  if not finished[s]]
        return self._round(stage, counters) == min(rounds)

    def blockers(self, stage: int, counters: Sequence[int], finished: Sequence[bool]) -> List[int]:
        """All stages still working on earlier rounds."""
        me = self._round(stage, counters)
        return [s for s in range(self.n_stages)
                if not finished[s] and self._round(s, counters) < me]


def effective_windows(n_stages: int, threads_per_team: int, d_l: int,
                      d_u: int, team_delay: int = 0) -> Tuple[List[int], List[int]]:
    """Per-stage Eq. 3 bounds ``(d_l_eff, d_u_eff)``: the team delay
    ``d_t`` is "trivially implemented by adding d_t to d_l on a team's
    front thread and to d_u on its rear thread" (Sect. 1.3), except on
    the overall front and rear.  Raw integers, legal or not."""
    t = threads_per_team
    d_l_eff = [d_l + (team_delay if s % t == 0 and s > 0 else 0)
               for s in range(n_stages)]
    d_u_eff = [d_u + (team_delay if s % t == t - 1 and s < n_stages - 1 else 0)
               for s in range(n_stages)]
    return d_l_eff, d_u_eff


class RelaxedPolicy:
    """Relaxed synchronisation, Eq. 3 of the paper.

    Thread ``i`` may start its next block iff
    ``c_{i-1} - c_i >= d_l(i)`` and ``c_i - c_{i+1} <= d_u(i)``, with the
    per-stage bounds of :func:`effective_windows`.  The overall
    front/rear threads ignore the first/second condition respectively,
    and a finished predecessor counts as infinitely far ahead (drain
    waiver; see :class:`repro.core.parameters.RelaxedSpec`).  Built from
    raw windows: the executor's by :func:`make_policy`, the analyzer's
    by :meth:`~repro.analysis.model.ScheduleSpec.policy`, legal or not.
    """

    def __init__(self, d_l_eff: Sequence[int], d_u_eff: Sequence[int]) -> None:
        self.n_stages = len(d_l_eff)
        self.d_l_eff: List[int] = list(d_l_eff)
        self.d_u_eff: List[int] = list(d_u_eff)

    def ready(self, stage: int, counters: Sequence[int], finished: Sequence[bool]) -> bool:
        """Eq. 3 as a precondition for starting the next block."""
        if stage > 0 and not finished[stage - 1]:
            if counters[stage - 1] - counters[stage] < self.d_l_eff[stage]:
                return False
        if stage < self.n_stages - 1:
            if counters[stage] - counters[stage + 1] > self.d_u_eff[stage]:
                return False
        return True

    def blockers(self, stage: int, counters: Sequence[int], finished: Sequence[bool]) -> List[int]:
        """The neighbor stages currently holding this stage back."""
        out: List[int] = []
        if stage > 0 and not finished[stage - 1]:
            if counters[stage - 1] - counters[stage] < self.d_l_eff[stage]:
                out.append(stage - 1)
        if stage < self.n_stages - 1:
            if counters[stage] - counters[stage + 1] > self.d_u_eff[stage]:
                out.append(stage + 1)
        return out


def make_policy(config: PipelineConfig) -> SyncPolicy:
    """Instantiate the policy matching ``config.sync``."""
    sync = config.sync
    if isinstance(sync, BarrierSpec):
        return BarrierPolicy(config.n_stages)
    if isinstance(sync, RelaxedSpec):
        return RelaxedPolicy(*effective_windows(
            config.n_stages, config.threads_per_team, sync.d_l, sync.d_u,
            sync.team_delay))
    raise TypeError(f"unknown sync spec {config.sync!r}")


class SyncAborted(RuntimeError):
    """A peer stage failed; this stage must unwind instead of waiting."""


class SyncWaitTimeout(RuntimeError):
    """A stage waited longer than the watchdog allows (stuck schedule)."""


class CounterBoard:
    """The live sync state of one pipeline pass, and its only holder.

    The paper's volatile-counter protocol made real: one counter per
    stage, readiness decided by a :class:`SyncPolicy`.  One set of
    bookkeeping — counters, finished flags, counter gap, blocked-poll
    and drain counts, optional publication log — under two protocols:

    * :meth:`poll` / :meth:`publish`, lock-free, for a driver that is
      the board's **only** thread (the executor's interleaver): taking
      the condition per poll costs more than the readiness check.
    * :meth:`wait_ready` / :meth:`advance`, the same two under the
      condition variable, for one OS thread per stage.  Real threads
      must **sleep**, not spin, and "wake when my neighbour's counter
      changes" misses a wakeup around the drain waiver — a stage can
      become ready because its predecessor *finished* (the counter
      never moves again).  So every state change — advance, finish
      *and* abort — is a ``notify_all`` on one condition, and waiters
      re-check the policy in a loop (spurious wakeups are harmless).

    The board never decides *legality* (:func:`repro.analysis.assert_legal`
    does); the watchdog ``timeout`` on every wait turns a bug above it
    into an error naming the blocker instead of a hung process.
    """

    def __init__(self, policy: SyncPolicy, n_stages: int, n_blocks: int,
                 timeout: Optional[float] = 120.0,
                 record_log: bool = False) -> None:
        if n_stages < 1 or n_blocks < 0:
            raise ValueError("need >= 1 stage and >= 0 blocks")
        self.policy = policy
        self.n_stages = n_stages
        self.n_blocks = n_blocks
        self.timeout = timeout
        #: Blocks published per stage.  Only stage ``s`` writes entry
        #: ``s``, so it may read that entry without the lock.
        self.counters = [0] * n_stages
        #: ``(stage, block)`` in publication order, if recorded.
        self.log: Optional[List[Tuple[int, int]]] = [] if record_log else None
        self._cond = threading.Condition()
        self._finished = [False] * n_stages
        self._blocked_polls = 0
        self._drain_blocks = 0
        self._max_gap = 0
        self._failure: Optional[BaseException] = None

    # -- the bookkeeping: callers own the board or hold the condition ---------

    def poll(self, stages: Optional[Sequence[int]] = None) -> List[int]:
        """The unfinished ones of ``stages`` (default: all) that may start
        a block now.  Each one found shut is a blocked poll; a poll made
        after some stage finished its traversal is a drain poll."""
        counters, finished, ready = self.counters, self._finished, self.policy.ready
        is_open = []
        for s in range(self.n_stages) if stages is None else stages:
            if finished[s]:
                continue
            if ready(s, counters, finished):
                is_open.append(s)
            else:
                self._blocked_polls += 1
        if any(finished):
            self._drain_blocks += 1
        return is_open

    def run_length(self, stage: int, cap: int) -> int:
        """How many consecutive blocks ``stage``, ready now, may start
        before it publishes: the policy's own :meth:`SyncPolicy.ready`
        asked about the stage's counter bumped by 1, 2, … while the
        others stand still, at most ``cap`` and the blocks left.

        Running them as one step is the interleaving in which the stage
        is picked that many times in a row, so it needs no legality rule
        of its own; the counter lags the work until :meth:`publish`, a
        state a slow stage reaches anyway.
        """
        counters = self.counters
        c = counters[stage]
        limit = min(cap, self.n_blocks - c)
        if limit <= 1:
            return 1
        trial, finished, ready = list(counters), self._finished, self.policy.ready
        n = 1
        while n < limit:
            trial[stage] = c + n
            if not ready(stage, trial, finished):
                break
            n += 1
        return n

    def publish(self, stage: int, blocks: int = 1) -> int:
        """Count ``blocks`` completed blocks of ``stage`` one by one (gap,
        log and finished flag as for single steps); returns its counter.
        The finished flag moves with the final count, never after it."""
        counters = self.counters
        for _ in range(blocks):
            block = counters[stage]
            counters[stage] = value = block + 1
            if value >= self.n_blocks:
                self._finished[stage] = True
            gap = max(counters) - min(counters)
            if gap > self._max_gap:
                self._max_gap = gap
            if self.log is not None:
                self.log.append((stage, block))
        return counters[stage]

    def describe_wait(self) -> str:
        """Who waits on whom (:meth:`SyncPolicy.blockers`): the text of
        every stuck-schedule error."""
        counters, finished = self.counters, self._finished
        waits = [(s, self.policy.blockers(s, counters, finished))
                 for s in range(self.n_stages) if not finished[s]]
        return ("; ".join(f"stage {s} waits on stage {' and '.join(map(str, on))}"
                          for s, on in waits if on)
                + f" (counters={counters}, finished={finished})")

    # -- the stage-thread protocol --------------------------------------------

    def wait_ready(self, stage: int, cap: int = 1) -> int:
        """Block until ``stage`` may start its next block (Eq. 3 window);
        return its :meth:`run_length` up to ``cap``, taken under the
        same condition.

        Raises :class:`SyncAborted` if a peer stage failed while we
        waited and :class:`SyncWaitTimeout` if the watchdog fires.
        """
        me = (stage,)
        with self._cond:
            while True:
                if self._failure is not None:
                    raise SyncAborted(
                        f"stage {stage}: a peer stage failed "
                        f"({type(self._failure).__name__})")
                if self.poll(me):
                    return self.run_length(stage, cap)
                if not self._cond.wait(self.timeout):
                    self._failure = SyncWaitTimeout(
                        f"stage {stage} waited > {self.timeout}s: "
                        + self.describe_wait())
                    self._cond.notify_all()
                    raise self._failure

    def advance(self, stage: int, blocks: int = 1) -> int:
        """:meth:`publish` under the condition; wakes every waiter."""
        with self._cond:
            value = self.publish(stage, blocks)
            self._cond.notify_all()
            return value

    def abort(self, exc: BaseException) -> None:
        """Record the first failure and wake every waiter to unwind."""
        with self._cond:
            if self._failure is None or isinstance(self._failure, SyncAborted):
                if not isinstance(exc, SyncAborted):
                    self._failure = exc
                elif self._failure is None:
                    self._failure = exc
            self._cond.notify_all()

    # -- observers ------------------------------------------------------------

    @property
    def failure(self) -> Optional[BaseException]:
        with self._cond:
            return self._failure

    @property
    def blocked_polls(self) -> int:
        """Polls (or wakeups) that found an unfinished stage's window shut."""
        with self._cond:
            return self._blocked_polls

    @property
    def drain_blocks(self) -> int:
        """Polls made while some stage had already finished."""
        with self._cond:
            return self._drain_blocks

    @property
    def max_counter_gap(self) -> int:
        """Largest ``max(c) - min(c)`` observed at any publication."""
        with self._cond:
            return self._max_gap

    @property
    def done(self) -> bool:
        with self._cond:
            return all(self._finished)
